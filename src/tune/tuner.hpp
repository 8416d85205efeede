// Simulation-backed plan search.
//
// `Tuner` takes the pruned candidate set of a `Space`, builds and
// compiles the communication program for each finalist exactly once (on
// a thread pool), then measures the whole set with one batched
// timing-only engine pass (`Engine::run_timing_batch`) — the same
// bit-exact fast path the figure benches use, with per-worker scratch
// arenas so the measurement itself performs no steady-state
// allocations.  The winner is the minimum measured time with a
// deterministic tie-break on candidate order, so tuning with `--jobs 1`
// and `--jobs 32` always returns the same plan and the same times
// (results are stored by candidate index; neither scheduling nor the
// batch decomposition can reorder them).
//
// Fault-aware tuning: pass a `fault::FaultSpec` and the tuner plans
// with the failure-aware planners (Transpose2DOptions::faults) *and*
// runs the measurement engine with the same compiled model, so the
// winner is the best plan for the degraded machine.  The fault spec is
// part of the cache key; healthy and degraded tunings never share
// entries.
//
// Memoization: give the tuner a `PlanCache` and a repeated problem
// returns without a single engine run — the cached winning candidate is
// re-planned (deterministically, hence bit-identically) instead of
// re-measured.  `TunedPlan::programs_measured` exposes exactly how many
// engine measurements a call performed; a cache hit reports zero.
#pragma once

#include <string>
#include <vector>

#include "sim/program.hpp"
#include "tune/cache.hpp"
#include "tune/space.hpp"

namespace nct::tune {

struct TuneOptions {
  /// Measurement worker threads; 0 = hardware concurrency.
  int jobs = 0;
  /// Search-space shape (family restriction, finalist budget).  Part of
  /// the cache key.
  SpaceOptions space;
  /// Fault scenario to tune for (not owned; null = healthy machine).
  /// Part of the cache key.
  const fault::FaultSpec* faults = nullptr;
  /// Optional memoization (not owned; null = always search).
  PlanCache* cache = nullptr;
};

/// One measured candidate (diagnostics; ordered as enumerated).
struct Measurement {
  Candidate candidate;
  double measured_seconds = 0.0;
  /// False when planning or simulation rejected the candidate (e.g. a
  /// fault set severing every route of a family): such candidates lose
  /// to every feasible one.
  bool feasible = true;
};

struct TunedPlan {
  Candidate choice;
  std::string algorithm;  ///< human-readable decision, mirrors TransposePlan.
  sim::Program program;
  double measured_seconds = 0.0;
  double predicted_seconds = 0.0;  ///< the cost-model prior of the winner.
  bool from_cache = false;
  /// Engine measurements this call performed (0 on a cache hit).
  std::size_t programs_measured = 0;
  /// Per-candidate results of the search (empty on a cache hit).
  std::vector<Measurement> measurements;
};

/// The plan cache's record of a tuning decision: what Tuner::tune
/// stores, and what the transpose service publishes after a background
/// tune.
CacheEntry cache_entry(const TunedPlan& plan);

class Tuner {
 public:
  explicit Tuner(sim::MachineParams machine, TuneOptions options = {});

  const sim::MachineParams& machine() const noexcept { return machine_; }
  const TuneOptions& options() const noexcept { return options_; }

  /// Search (or recall) the best transpose plan for this spec pair.
  /// Throws std::invalid_argument when no family is legal for the pair
  /// and fault::FaultError when the fault set disconnects every
  /// candidate.
  TunedPlan tune(const cube::PartitionSpec& before, const cube::PartitionSpec& after) const;

  /// Deterministically build the program a candidate describes (the
  /// same construction measurement uses; cache hits replay it).
  sim::Program build(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                     const Candidate& candidate) const;

 private:
  /// build() with the spec pair's core::destination_tables for the
  /// pipelined families (null = each build computes its own).
  sim::Program build(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                     const Candidate& candidate,
                     const std::vector<sim::slot>* slot_tables) const;

  sim::MachineParams machine_;
  TuneOptions options_;
  fault::FaultModel fault_model_;  ///< compiled once; empty when healthy.
};

/// Convenience one-shot: Tuner(machine, options).tune(before, after).
TunedPlan tune_transpose(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                         const sim::MachineParams& machine, const TuneOptions& options = {});

}  // namespace nct::tune

namespace nct::core {

/// Autotuned counterpart of core::plan_transpose: searches the paper's
/// algorithm/parameter crossovers with the timing-only engine instead of
/// trusting the hand-written heuristics, optionally memoized in a
/// tune::PlanCache.  Defined by the nct_tune library (which layers on
/// top of nct_core).
tune::TunedPlan tuned_transpose(const cube::PartitionSpec& before,
                                const cube::PartitionSpec& after,
                                const sim::MachineParams& machine,
                                const tune::TuneOptions& options = {});

}  // namespace nct::core
