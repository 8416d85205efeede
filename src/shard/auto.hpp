// Transparent routing of large-machine timing runs onto the sharded
// engine.
//
// `run_timing_batch_auto` is a drop-in replacement for
// `sim::Engine::run_timing_batch`.  Every program of a valid batch runs
// on the engine's machine (a program compiled for another machine
// raises ProgramError on either path), so the routing is decided once
// per batch: an engine machine below the size threshold runs the
// ordinary batched engine, one at or above it runs every program
// through `ShardEngine` with the topology's natural partition.  Because
// the sharded path is bit-identical to the single-thread path for every
// program (see shard/engine.hpp), callers observe exactly the same
// results either way — the routing is purely a resource decision, which
// is why the tuner and the transpose service can adopt it without
// changing any golden output.
//
// Policy knobs (environment overrides for operators, see from_env):
//   NCT_SHARD_MIN_NODES  — machine size at which runs go sharded
//                          (default 16384; 0 disables the sharded path);
//   NCT_SHARD_THREADS    — shard count to request (default: hardware
//                          concurrency; at most AutoPolicy::kMaxShards;
//                          the partitioner clamps to what the topology
//                          can cut).
#pragma once

#include <cstdint>
#include <span>

#include "shard/engine.hpp"
#include "sim/batch.hpp"

namespace nct::shard {

/// When and how widely to shard.  Defaults match from_env() with no
/// environment set.
struct AutoPolicy {
  /// Largest NCT_SHARD_THREADS value from_env accepts: each shard is a
  /// host thread, so a larger value is treated like an unparsable one.
  static constexpr std::uint32_t kMaxShards = 256;

  /// Route a program through the sharded engine when its machine has at
  /// least this many nodes; 0 disables sharding entirely.
  word min_nodes = word{1} << 14;
  /// Requested shard count; 0 means hardware concurrency.  The
  /// topology partitioner may clamp it further.
  std::uint32_t shards = 0;

  /// Shard count to request for a run (resolves 0 to the host's
  /// concurrency, never less than 1).
  std::uint32_t effective_shards() const noexcept;

  /// Policy with NCT_SHARD_MIN_NODES / NCT_SHARD_THREADS applied
  /// (unset or unparsable variables, and a shard count above
  /// kMaxShards, keep the defaults).
  static AutoPolicy from_env() noexcept;
};

/// Grow-only storage for run_timing_batch_auto, reusable across calls
/// (same contract as sim::BatchScratch: one per concurrent call).
struct AutoScratch {
  ShardScratch shard;  ///< shared by the sharded runs (serial).
};

/// Batched timing-only execution with automatic shard routing.  Same
/// contract as `sim::Engine::run_timing_batch`: results land at the
/// program's index in `batch.runs`, fault::FaultError is captured per
/// slot (ok = false), anything else propagates, and the return value is
/// the number of successful runs.  Output is bit-identical to
/// `engine.run_timing_batch(programs, batch, jobs)` for every policy.
std::size_t run_timing_batch_auto(const sim::Engine& engine,
                                  std::span<const sim::CompiledProgram* const> programs,
                                  sim::BatchScratch& batch, int jobs, AutoScratch& scratch,
                                  const AutoPolicy& policy = AutoPolicy::from_env());

/// Convenience overload keeping one thread-local AutoScratch, for call
/// sites that already own only a BatchScratch.
std::size_t run_timing_batch_auto(const sim::Engine& engine,
                                  std::span<const sim::CompiledProgram* const> programs,
                                  sim::BatchScratch& batch, int jobs,
                                  const AutoPolicy& policy = AutoPolicy::from_env());

}  // namespace nct::shard
