#include "tune/tuner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "comm/rearrange.hpp"
#include "core/mixed_encoding.hpp"
#include "fault/fault.hpp"
#include "core/router.hpp"
#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "sim/batch.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "topology/routed.hpp"
#include "topology/topology.hpp"

namespace nct::tune {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int worker_count(int jobs, std::size_t tasks) {
  if (jobs <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw != 0 ? static_cast<int>(hw) : 1;
  }
  if (static_cast<std::size_t>(jobs) > tasks) jobs = static_cast<int>(tasks);
  return jobs < 1 ? 1 : jobs;
}

/// Families planned by core's pipelined SPT/DPT/MPT planner, which take
/// Transpose2DOptions::slot_tables.
bool pipelined(Family f) { return f == Family::spt || f == Family::dpt || f == Family::mpt; }

}  // namespace

Tuner::Tuner(sim::MachineParams machine, TuneOptions options)
    : machine_(std::move(machine)), options_(std::move(options)) {
  if (options_.faults != nullptr && !options_.faults->empty())
    fault_model_ = fault::FaultModel(topo::make_topology(machine_.topology, machine_.n),
                                     *options_.faults);
}

sim::Program Tuner::build(const cube::PartitionSpec& before,
                          const cube::PartitionSpec& after,
                          const Candidate& candidate) const {
  return build(before, after, candidate, nullptr);
}

sim::Program Tuner::build(const cube::PartitionSpec& before,
                          const cube::PartitionSpec& after, const Candidate& candidate,
                          const std::vector<sim::slot>* slot_tables) const {
  const fault::FaultModel* faults = fault_model_.empty() ? nullptr : &fault_model_;
  switch (candidate.family) {
    case Family::stepwise: {
      core::Transpose2DOptions opt;
      opt.faults = faults;
      return core::transpose_2d_stepwise(before, after, machine_, opt);
    }
    case Family::spt: {
      core::Transpose2DOptions opt;
      opt.packet_elements = candidate.packet_elements;
      opt.faults = faults;
      opt.slot_tables = slot_tables;
      return core::transpose_spt(before, after, machine_, opt);
    }
    case Family::dpt: {
      core::Transpose2DOptions opt;
      opt.packet_elements = candidate.packet_elements;
      opt.faults = faults;
      opt.slot_tables = slot_tables;
      return core::transpose_dpt(before, after, machine_, opt);
    }
    case Family::mpt: {
      core::Transpose2DOptions opt;
      opt.packet_elements = candidate.packet_elements;
      opt.faults = faults;
      opt.slot_tables = slot_tables;
      return core::transpose_mpt(before, after, machine_, opt);
    }
    case Family::direct2d: {
      core::Transpose2DOptions opt;
      opt.faults = faults;
      return core::transpose_2d_direct(before, after, machine_, opt);
    }
    case Family::exchange: {
      comm::RearrangeOptions opt;
      opt.policy = comm::BufferPolicy{candidate.buffer_mode, candidate.b_copy_elements};
      return core::transpose_1d(before, after, machine_.n, opt);
    }
    case Family::combined:
      return core::transpose_mixed_combined(before, after);
    case Family::routed: {
      if (!machine_.topology.is_cube()) {
        // Non-cube machines: the BFS-routed topo planner over the node
        // grid transpose (the only spec pairs Space enumerates here).
        const auto t = topo::make_topology(machine_.topology, machine_.n);
        topo::RoutedOptions opt;
        opt.packet_elements = candidate.packet_elements;
        if (faults != nullptr) {
          const fault::FaultModel* model = faults;
          const topo::Topology* topology = t.get();
          opt.router = [model, topology](word src, word dst) {
            auto route = fault::route_around(*topology, src, dst, *model);
            if (!route) throw fault::FaultError("routed: no fault-free route");
            return *route;
          };
        }
        const word rows = word{1} << before.fields()[0].len;
        const word cols = word{1} << before.fields()[1].len;
        return topo::plan_routed_transpose(*t, rows, cols, before.local_elements(), opt);
      }
      core::RouterOptions opt;
      opt.element_bytes = machine_.element_bytes;
      return core::transpose_1d_routed(before, after, machine_.n, opt);
    }
    case Family::ring:
      // Ring decompositions exist only inside kernel pipelines (their
      // shift stages plan them directly); Space never emits them here.
      throw std::invalid_argument("tune: ring is not a transpose family");
  }
  throw std::invalid_argument("unknown candidate family");
}

TunedPlan Tuner::tune(const cube::PartitionSpec& before,
                      const cube::PartitionSpec& after) const {
  const TuneKey key = make_key(machine_, before, after, options_.faults, options_.space);

  if (options_.cache != nullptr) {
    if (const auto entry = options_.cache->find(key)) {
      TunedPlan plan;
      plan.choice = entry->choice;
      plan.algorithm = entry->algorithm;
      plan.program = build(before, after, entry->choice);
      plan.measured_seconds = entry->measured_seconds;
      plan.predicted_seconds = entry->predicted_seconds;
      plan.from_cache = true;
      return plan;
    }
  }

  const Space space(before, after, machine_, options_.space);
  const std::vector<Candidate>& candidates = space.candidates();
  if (candidates.empty())
    throw std::invalid_argument("tune: no legal candidate family for this spec pair");

  // The pipelined families' destination slot tables depend on the spec
  // pair only: compute them once for every packet size and the winner.
  std::vector<sim::slot> slot_tables;
  const bool any_pipelined = std::any_of(candidates.begin(), candidates.end(),
                                         [](const Candidate& c) { return pipelined(c.family); });
  if (any_pipelined) slot_tables = core::destination_tables(before, after);
  const std::vector<sim::slot>* tables = any_pipelined ? &slot_tables : nullptr;

  // Phase 1: build and compile every finalist once, up front, on a
  // worker pool (planning and sim::compile are the expensive part and
  // used to be re-done inside the measurement loop).  Results land at
  // the candidate's index, so the argmin below is independent of
  // scheduling and the tuned decision is deterministic across --jobs
  // values and batch decompositions.
  std::vector<Measurement> results(candidates.size());
  std::vector<sim::CompiledProgram> compiled(candidates.size());
  std::vector<char> buildable(candidates.size(), 0);
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  const fault::FaultModel* faults = fault_model_.empty() ? nullptr : &fault_model_;
  const auto compile_worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= candidates.size()) return;
      Measurement& m = results[i];
      m.candidate = candidates[i];
      try {
        compiled[i] = sim::compile(build(before, after, candidates[i], tables), machine_);
        buildable[i] = 1;
      } catch (const fault::FaultError&) {
        // This family cannot reach its partners under the fault set;
        // rank it behind every feasible candidate.
        m.measured_seconds = kInf;
        m.feasible = false;
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
        return;
      }
    }
  };
  const int jobs = worker_count(options_.jobs, candidates.size());
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs) - 1);
  for (int t = 1; t < jobs; ++t) pool.emplace_back(compile_worker);
  compile_worker();
  for (auto& th : pool) th.join();
  if (err) std::rethrow_exception(err);

  // Phase 2: one batched timing-only measurement over the compiled
  // finalists.  One engine serves the whole batch; per-worker scratch
  // lives in the BatchScratch, so measurement performs no steady-state
  // allocations and measures exactly run_timing.
  std::vector<const sim::CompiledProgram*> progs;
  std::vector<std::size_t> prog_index;
  progs.reserve(candidates.size());
  prog_index.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (buildable[i]) {
      progs.push_back(&compiled[i]);
      prog_index.push_back(i);
    }
  }
  sim::EngineOptions eopt;
  eopt.faults = faults;
  const sim::Engine engine(machine_, eopt);
  sim::BatchScratch batch;
  engine.run_timing_batch(progs, batch, jobs);
  for (std::size_t k = 0; k < progs.size(); ++k) {
    Measurement& m = results[prog_index[k]];
    const sim::BatchRun& run = batch.runs[k];
    if (run.ok) {
      m.measured_seconds = run.result.total_time;
    } else {
      m.measured_seconds = kInf;
      m.feasible = false;
    }
  }

  std::size_t best = candidates.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].feasible) continue;
    if (best == candidates.size() ||
        results[i].measured_seconds < results[best].measured_seconds)
      best = i;  // strict <: ties keep the earlier (better-prior) candidate
  }
  if (best == candidates.size())
    throw fault::FaultError("tune: every candidate is infeasible under the fault set");

  TunedPlan plan;
  plan.choice = results[best].candidate;
  plan.algorithm = std::string(family_name(plan.choice.family)) + " (tuned: " +
                   plan.choice.describe() + ")";
  plan.program = build(before, after, plan.choice, tables);
  plan.measured_seconds = results[best].measured_seconds;
  plan.predicted_seconds = plan.choice.predicted_seconds;
  plan.programs_measured = results.size();
  plan.measurements = std::move(results);

  if (options_.cache != nullptr) options_.cache->insert(key, cache_entry(plan));
  return plan;
}

CacheEntry cache_entry(const TunedPlan& plan) {
  CacheEntry entry;
  entry.choice = plan.choice;
  entry.predicted_seconds = plan.predicted_seconds;
  entry.measured_seconds = plan.measured_seconds;
  entry.algorithm = plan.algorithm;
  return entry;
}

TunedPlan tune_transpose(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                         const sim::MachineParams& machine, const TuneOptions& options) {
  return Tuner(machine, options).tune(before, after);
}

}  // namespace nct::tune

namespace nct::core {

tune::TunedPlan tuned_transpose(const cube::PartitionSpec& before,
                                const cube::PartitionSpec& after,
                                const sim::MachineParams& machine,
                                const tune::TuneOptions& options) {
  return tune::tune_transpose(before, after, machine, options);
}

}  // namespace nct::core
