// Tuner behaviour and the paper-decision golden tests: the measured
// search must reproduce the crossovers of Figs 11/12 (buffer/packet
// size) and Fig 19 (1D vs 2D layout), be deterministic across worker
// counts, return bit-identical programs from the plan cache with zero
// engine runs, and keep fault-scenario tunings isolated from healthy
// ones.
#include "tune/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/cost_model.hpp"
#include "core/api.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "tune/layouts.hpp"

namespace nct::tune {
namespace {

using cube::word;

double simulated_time(const sim::Program& prog, const sim::MachineParams& m) {
  return sim::Engine(m).run_timing(sim::compile(prog, m)).total_time;
}

TEST(Tuner, WinnerIsTheMeasuredMinimum) {
  const SpecPair p = fig_layout_2d(12, 4);
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  const TunedPlan plan = tune_transpose(p.first, p.second, m);
  ASSERT_FALSE(plan.measurements.empty());
  EXPECT_EQ(plan.programs_measured, plan.measurements.size());
  for (const Measurement& mm : plan.measurements) {
    if (mm.feasible) {
      EXPECT_LE(plan.measured_seconds, mm.measured_seconds);
    }
  }
  // The reported time is the simulated time of the returned program.
  EXPECT_DOUBLE_EQ(plan.measured_seconds, simulated_time(plan.program, m));
  EXPECT_FALSE(plan.algorithm.empty());
  EXPECT_GT(plan.predicted_seconds, 0.0);
}

TEST(Tuner, DeterministicAcrossWorkerCounts) {
  const SpecPair p = fig_layout_2d(14, 4);
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  TuneOptions serial;
  serial.jobs = 1;
  TuneOptions wide;
  wide.jobs = 4;
  const TunedPlan a = tune_transpose(p.first, p.second, m, serial);
  const TunedPlan b = tune_transpose(p.first, p.second, m, wide);
  EXPECT_EQ(a.choice, b.choice);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_DOUBLE_EQ(a.measured_seconds, b.measured_seconds);
  ASSERT_EQ(a.measurements.size(), b.measurements.size());
  for (std::size_t i = 0; i < a.measurements.size(); ++i) {
    EXPECT_EQ(a.measurements[i].candidate, b.measurements[i].candidate);
    EXPECT_DOUBLE_EQ(a.measurements[i].measured_seconds, b.measurements[i].measured_seconds);
  }
  EXPECT_TRUE(a.program == b.program);
}

TEST(Tuner, NeverWorseThanTheHeuristicPlanner) {
  // The search space contains the planner-default candidate of every
  // legal family, so the tuned plan can only match or beat
  // core::plan_transpose's pick (measured on the same engine).
  for (const int lg : {10, 14}) {
    const SpecPair p = fig_layout_2d(lg, 4);
    const sim::MachineParams m = sim::MachineParams::ipsc(4);
    const core::TransposePlan heuristic = core::plan_transpose(p.first, p.second, m);
    const TunedPlan tuned = tune_transpose(p.first, p.second, m);
    EXPECT_LE(tuned.measured_seconds, simulated_time(heuristic.program, m) + 1e-12)
        << "lg=" << lg;
  }
}

// ---- paper-decision goldens ------------------------------------------

TEST(TunerGolden, Fig11TunedPacketLandsInTheBOptNeighbourhood) {
  // Figs 11/12: performance is governed by the packet/buffer size; the
  // optimum is B_opt = spt_optimal_packet.  The tuned pick must be the
  // planner default (which computes the closed form) or a grid point
  // from the B_opt neighbourhood — never an off-grid value.
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  const SpecPair p = fig_layout_2d(14, 4);
  const TunedPlan plan = tune_transpose(p.first, p.second, m);
  const double pq = static_cast<double>(p.first.shape().elements());
  const auto grid = Space::packet_grid(m, pq);
  const bool on_grid = plan.choice.packet_elements == 0 ||
                       std::find(grid.begin(), grid.end(), plan.choice.packet_elements) !=
                           grid.end();
  EXPECT_TRUE(on_grid) << plan.choice.describe();
  // And the measured winner beats clearly-off-optimal packets: compare
  // against the smallest grid packet (max start-up overhead).
  for (const Measurement& mm : plan.measurements) {
    if (mm.candidate.family == plan.choice.family &&
        mm.candidate.packet_elements == grid.front()) {
      EXPECT_LE(plan.measured_seconds, mm.measured_seconds);
    }
  }
}

TEST(TunerGolden, Fig12TunedCopyThresholdTracksTauOverTcopy) {
  // The 1D exchange tuning must pick a buffering decision consistent
  // with B_copy = tau/t_copy (~139 elements on the iPSC): whatever mode
  // wins, it must measure no worse than both extremes.
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  const SpecPair p = fig_layout_1d_cyclic(14, 4);
  TuneOptions opt;
  opt.space.families = {Family::exchange};
  const TunedPlan plan = tune_transpose(p.first, p.second, m, opt);
  double buffered = -1.0, unbuffered = -1.0;
  for (const Measurement& mm : plan.measurements) {
    if (mm.candidate.buffer_mode == comm::BufferMode::buffered) buffered = mm.measured_seconds;
    if (mm.candidate.buffer_mode == comm::BufferMode::unbuffered)
      unbuffered = mm.measured_seconds;
  }
  ASSERT_GE(buffered, 0.0);
  ASSERT_GE(unbuffered, 0.0);
  EXPECT_LE(plan.measured_seconds, buffered);
  EXPECT_LE(plan.measured_seconds, unbuffered);
  // If an optimal-threshold candidate was enumerated, its threshold came
  // from the tau/t_copy grid.
  const auto grid = Space::copy_threshold_grid(m, p.first.local_elements());
  for (const Measurement& mm : plan.measurements) {
    if (mm.candidate.buffer_mode == comm::BufferMode::optimal) {
      EXPECT_NE(std::find(grid.begin(), grid.end(), mm.candidate.b_copy_elements),
                grid.end())
          << mm.candidate.describe();
    }
  }
}

TEST(TunerGolden, Fig19CrossoverMatchesTheCostModel) {
  // Fig 19: 1D partitioning wins on few processors, 2D on many; the
  // crossover the measured search finds must match the cost model's for
  // both machine models.
  for (const bool use_cm : {false, true}) {
    for (const int n : {2, 4, 6}) {
      const sim::MachineParams m =
          use_cm ? sim::MachineParams::cm(n) : sim::MachineParams::ipsc(n);
      const int lg = 12;
      const SpecPair p1 = fig_layout_1d(lg, n);
      const SpecPair p2 = fig_layout_2d(lg, n);
      const TunedPlan t1 = tune_transpose(p1.first, p1.second, m);
      const TunedPlan t2 = tune_transpose(p2.first, p2.second, m);
      const double pq = static_cast<double>(word{1} << lg);
      const double model_1d =
          analysis::transpose_1d_buffered_time(m, pq, analysis::optimal_copy_threshold(m));
      const double model_2d = m.port == sim::PortModel::n_port
                                  ? analysis::mpt_min_time(m, pq)
                                  : analysis::transpose_2d_stepwise_time(m, pq);
      const bool tuned_says_2d = t2.measured_seconds < t1.measured_seconds;
      const bool model_says_2d = model_2d < model_1d;
      EXPECT_EQ(tuned_says_2d, model_says_2d)
          << m.name << " n=" << n << ": tuned 1D=" << t1.measured_seconds
          << " 2D=" << t2.measured_seconds << ", model 1D=" << model_1d
          << " 2D=" << model_2d;
    }
  }
}

// ---- cache integration -----------------------------------------------

TEST(TunerCache, HitRebuildsBitIdenticalProgramWithoutMeasuring) {
  const SpecPair p = fig_layout_2d(12, 4);
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  PlanCache cache;
  TuneOptions opt;
  opt.cache = &cache;
  const Tuner tuner(m, opt);

  const TunedPlan cold = tuner.tune(p.first, p.second);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_GT(cold.programs_measured, 0u);
  EXPECT_EQ(cache.size(), 1u);

  const TunedPlan warm = tuner.tune(p.first, p.second);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.programs_measured, 0u);  // no engine run at all
  EXPECT_TRUE(warm.measurements.empty());
  EXPECT_EQ(warm.choice, cold.choice);
  EXPECT_DOUBLE_EQ(warm.measured_seconds, cold.measured_seconds);
  // The golden requirement: the replayed plan is bit-identical.
  EXPECT_TRUE(warm.program == cold.program);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(TunerCache, WinnerProgramEqualsAPublicBuildOfItsChoice) {
  // The search builds its pipelined candidates and the winner with
  // destination tables shared across the whole search; the public build
  // computes its own.  The programs must agree, cold and on a cache hit,
  // healthy and faulted.
  const SpecPair p = fig_layout_2d(14, 6);
  const sim::MachineParams m = sim::MachineParams::cm(6);
  fault::FaultSpec faults;
  faults.fail_link(1, 0).fail_link(2, 1).fail_link(5, 2);
  for (const fault::FaultSpec* f : {static_cast<const fault::FaultSpec*>(nullptr),
                                    static_cast<const fault::FaultSpec*>(&faults)}) {
    PlanCache cache;
    TuneOptions opt;
    opt.cache = &cache;
    opt.faults = f;
    const Tuner tuner(m, opt);
    const TunedPlan cold = tuner.tune(p.first, p.second);
    EXPECT_TRUE(cold.choice.family == Family::spt || cold.choice.family == Family::dpt ||
                cold.choice.family == Family::mpt)
        << cold.choice.describe();
    EXPECT_TRUE(cold.program == tuner.build(p.first, p.second, cold.choice));
    const TunedPlan warm = tuner.tune(p.first, p.second);
    ASSERT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.program == tuner.build(p.first, p.second, warm.choice));
  }
}

TEST(TunerCache, DifferentProblemsGetDifferentEntries) {
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  PlanCache cache;
  TuneOptions opt;
  opt.cache = &cache;
  const Tuner tuner(m, opt);
  tuner.tune(fig_layout_2d(12, 4).first, fig_layout_2d(12, 4).second);
  tuner.tune(fig_layout_2d(14, 4).first, fig_layout_2d(14, 4).second);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TunerCache, FaultScenarioDoesNotPolluteHealthyEntries) {
  const SpecPair p = fig_layout_2d(12, 4);
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  PlanCache cache;

  TuneOptions healthy;
  healthy.cache = &cache;
  const TunedPlan h1 = Tuner(m, healthy).tune(p.first, p.second);

  fault::FaultSpec faults;
  faults.fail_link(0, 1);
  TuneOptions degraded;
  degraded.cache = &cache;
  degraded.faults = &faults;
  const TunedPlan d1 = Tuner(m, degraded).tune(p.first, p.second);
  EXPECT_FALSE(d1.from_cache);        // different key: no aliasing
  EXPECT_GT(d1.programs_measured, 0u);
  EXPECT_EQ(cache.size(), 2u);

  // Both scenarios now hit their own entry.
  const TunedPlan h2 = Tuner(m, healthy).tune(p.first, p.second);
  EXPECT_TRUE(h2.from_cache);
  EXPECT_TRUE(h2.program == h1.program);
  const TunedPlan d2 = Tuner(m, degraded).tune(p.first, p.second);
  EXPECT_TRUE(d2.from_cache);
  EXPECT_TRUE(d2.program == d1.program);
}

TEST(TunerFaults, TunesAroundAPermanentLinkFault) {
  const SpecPair p = fig_layout_2d(12, 4);
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  fault::FaultSpec faults;
  faults.fail_link(0, 0);
  TuneOptions opt;
  opt.faults = &faults;
  const TunedPlan plan = tune_transpose(p.first, p.second, m, opt);
  // The winner's program must actually run on the degraded machine.
  fault::FaultModel model(m.n, faults);
  sim::EngineOptions eopt;
  eopt.faults = &model;
  const double t =
      sim::Engine(m, eopt).run_timing(sim::compile(plan.program, m)).total_time;
  EXPECT_DOUBLE_EQ(plan.measured_seconds, t);
  // Degraded tuning can only be slower or equal, never faster, than the
  // same winner family on the healthy machine.
  const TunedPlan healthy = tune_transpose(p.first, p.second, m);
  EXPECT_GE(plan.measured_seconds, healthy.measured_seconds - 1e-12);
}

TEST(TunerApi, CoreTunedTransposeMirrorsTheTuner) {
  const SpecPair p = fig_layout_2d(12, 4);
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  const TunedPlan via_core = core::tuned_transpose(p.first, p.second, m);
  const TunedPlan direct = tune_transpose(p.first, p.second, m);
  EXPECT_EQ(via_core.choice, direct.choice);
  EXPECT_DOUBLE_EQ(via_core.measured_seconds, direct.measured_seconds);
  EXPECT_TRUE(via_core.program == direct.program);
}

TEST(TunerApi, RestrictedSpaceWithNoLegalFamilyThrows) {
  const SpecPair p = fig_layout_2d(12, 4);
  TuneOptions opt;
  opt.space.families = {Family::combined};  // not legal for a pairwise pair
  EXPECT_THROW(tune_transpose(p.first, p.second, sim::MachineParams::ipsc(4), opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace nct::tune
