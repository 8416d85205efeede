// Size-gated routing of a timing batch onto the sharded engine.
//
// `run_timing_batch_auto` runs a batch like
// `sim::Engine::run_timing_batch`.  Every program of a valid batch runs
// on the engine's machine (a program compiled for another machine
// raises ProgramError on either path), so the routing is decided once
// per batch: an engine machine below `AutoPolicy::min_nodes` runs the
// ordinary batched engine, one at or above it runs every program
// through `ShardEngine` with the topology's natural partition.  Because
// the sharded path is bit-identical to the single-thread path for every
// program (see shard/engine.hpp), callers observe exactly the same
// results either way.
//
// The tuner and the transpose service call `Engine::run_timing_batch`,
// which parallelises across programs instead; the sharded engine did not
// beat the plain one on any measured machine (ROADMAP item 4).  This
// router remains only for perfbench's cube18_transpose workload, and
// goes once that workload runs `ShardEngine` directly.
#pragma once

#include <cstdint>
#include <span>

#include "shard/engine.hpp"
#include "sim/batch.hpp"

namespace nct::shard {

/// When and how widely to shard.
struct AutoPolicy {
  /// Route a program through the sharded engine when its machine has at
  /// least this many nodes; 0 disables sharding entirely.
  word min_nodes = word{1} << 14;
  /// Requested shard count; 0 means hardware concurrency.  The
  /// topology partitioner may clamp it further.
  std::uint32_t shards = 0;

  /// Shard count to request for a run (resolves 0 to the host's
  /// concurrency, never less than 1).
  std::uint32_t effective_shards() const noexcept;
};

/// Grow-only storage for run_timing_batch_auto, reusable across calls
/// (same contract as sim::BatchScratch: one per concurrent call).
struct AutoScratch {
  ShardScratch shard;  ///< shared by the sharded runs (serial).
};

/// Batched timing-only execution with size-gated shard routing.  Same
/// contract as `sim::Engine::run_timing_batch`: results land at the
/// program's index in `batch.runs`, fault::FaultError is captured per
/// slot (ok = false), anything else propagates, and the return value is
/// the number of successful runs.  Output is bit-identical to
/// `engine.run_timing_batch(programs, batch, jobs)` for every policy.
std::size_t run_timing_batch_auto(const sim::Engine& engine,
                                  std::span<const sim::CompiledProgram* const> programs,
                                  sim::BatchScratch& batch, int jobs, AutoScratch& scratch,
                                  const AutoPolicy& policy);

}  // namespace nct::shard
