// Trace-driven conformance: the paper's structural claims checked on
// *real executions* (event traces of planner programs), plus exact
// agreement between the closed-form cost models and the simulator for
// the contention-free store-and-forward cases.
//
// Congestion properties proved on traces:
//  * MPT path families are edge-disjoint per source (Theorem 2), while
//    different sources' paths do reuse links across schedule cycles;
//  * SPT paths are globally edge-disjoint;
//  * one-port machines never overlap a node's send (or receive) port;
//  * the SBnT all-to-all keeps all n ports of every node busy
//    simultaneously (n-port saturation).
//
// Cost-model exactness (verified empirically; the remaining closed forms
// are idealizations the models chapter compares only asymptotically):
//  * spt_time(m, PQ, B) for explicit integer packet sizes on n-port
//    store-and-forward machines;
//  * transpose_2d_stepwise_time on the iPSC model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/cost_model.hpp"
#include "comm/all_to_all.hpp"
#include "comm/rearrange.hpp"
#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"

namespace nct {
namespace {

using cube::MatrixShape;
using cube::PartitionSpec;
using cube::word;

/// Timing-only run with a trace attached (traces are identical across
/// engine paths — see the compile golden tests — so the fast path is
/// enough for conformance).
struct Traced {
  obs::TraceSink trace;
  sim::RunResult result;
};

Traced traced(const sim::Program& prog, const sim::MachineParams& m) {
  Traced t;
  sim::EngineOptions opt;
  opt.trace = &t.trace;
  t.result = sim::Engine(m, opt).run_timing(sim::compile(prog, m));
  return t;
}

sim::MachineParams unit_nport(int n) {
  auto m = sim::MachineParams::nport(n, 1e-3, 1e-6);
  m.element_bytes = 1;
  return m;
}

TEST(TraceConformance, MptPathFamiliesAreEdgeDisjointOnRealTrace) {
  const int n = 6, half = 3;
  const MatrixShape s{7, 7};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = unit_nport(n);
  const auto t = traced(core::transpose_mpt(before, after, m), m);

  ASSERT_FALSE(t.trace.empty());
  EXPECT_NO_THROW(obs::assert_edge_disjoint(t.trace));
  // Unlike SPT, MPT does share links *across* sources (different cycles
  // of Lemma 14's schedule): the trace must show that reuse.
  EXPECT_GE(obs::max_paths_per_link(t.trace), 2u);
}

TEST(TraceConformance, SptPathsAreGloballyEdgeDisjoint) {
  const int n = 6, half = 3;
  const MatrixShape s{6, 6};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = unit_nport(n);
  const auto t = traced(core::transpose_spt(before, after, m), m);

  ASSERT_FALSE(t.trace.empty());
  EXPECT_NO_THROW(obs::assert_edge_disjoint(t.trace));
  EXPECT_EQ(obs::max_paths_per_link(t.trace), 1u);
}

TEST(TraceConformance, ConflictingSyntheticProgramFailsEdgeDisjointness) {
  // Source 0 launches two different routes that share link (0, d0): a
  // deliberate Theorem 2 violation the checker must catch.
  sim::Program prog;
  prog.n = 2;
  prog.local_slots = 2;
  sim::Phase ph;
  ph.label = "conflict";
  ph.sends.add(0, {0}, {0}, {0});
  ph.sends.add(0, {0, 1}, {1}, {1});
  prog.phases.push_back(ph);

  const auto m = unit_nport(2);
  const auto t = traced(prog, m);
  const auto r = obs::check_edge_disjoint(t.trace);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("source 0"), std::string::npos);
  EXPECT_THROW(obs::assert_edge_disjoint(t.trace), obs::ConformanceError);
  EXPECT_EQ(obs::max_paths_per_link(t.trace), 2u);
}

TEST(TraceConformance, OnePortMachineSerialisesPortsOnRealTraces) {
  // iPSC (one-port): both a stepwise 2D transpose and a buffered 1D
  // transpose must keep every node's send and receive intervals
  // non-overlapping in the trace.
  {
    const int n = 4, half = 2;
    const MatrixShape s{5, 5};
    const auto before = PartitionSpec::two_dim_consecutive(s, half, half);
    const auto after = PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
    const auto m = sim::MachineParams::ipsc(n);
    const auto t = traced(core::transpose_2d_stepwise(before, after, m), m);
    ASSERT_FALSE(t.trace.empty());
    EXPECT_NO_THROW(obs::assert_one_port(t.trace));
  }
  {
    const int n = 3;
    const MatrixShape s{4, 4};
    const auto before = PartitionSpec::col_cyclic(s, n);
    const auto after = PartitionSpec::col_cyclic(s.transposed(), n);
    comm::RearrangeOptions opt;
    opt.policy = comm::BufferPolicy::buffered();
    const auto m = sim::MachineParams::ipsc(n);
    const auto t = traced(core::transpose_1d(before, after, n, opt), m);
    ASSERT_FALSE(t.trace.empty());
    EXPECT_NO_THROW(obs::assert_one_port(t.trace));
  }
}

TEST(TraceConformance, SbntKeepsAllPortsOfEveryNodeBusy) {
  for (const int n : {2, 3, 4}) {
    const auto m = unit_nport(n);
    const auto t = traced(comm::all_to_all_sbnt(n, 2), m);
    const auto peak = obs::peak_concurrent_out_ports(t.trace);
    ASSERT_EQ(peak.size(), static_cast<std::size_t>(word{1} << n));
    for (const int p : peak) EXPECT_EQ(p, n) << "n=" << n;
    // And, being an n-port algorithm, its trace must *fail* the one-port
    // interval check: concurrent injections are the whole point.
    EXPECT_FALSE(obs::check_one_port(t.trace).ok) << "n=" << n;
  }
}

// ---------------------------------------------------------------------
// Cost-model conformance: closed forms vs the simulator, exactly.
// ---------------------------------------------------------------------

TEST(CostConformance, SptClosedFormIsExactForExplicitPacketSizes) {
  // T_SPT = (ceil(PQ/(B N)) + n - 1)(B t_c + tau): exact on an n-port
  // store-and-forward machine whenever B is an explicit integer (B = 0
  // delegates to the planner's rounded B_opt and is checked elsewhere).
  for (const int n : {4, 6}) {
    for (const int lg : {10, 12}) {
      const int half = n / 2;
      const MatrixShape s{lg / 2, lg - lg / 2};
      const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
      const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
      const double pq = std::pow(2.0, lg);
      for (const word B : {word{1}, word{4}, word{16}}) {
        const auto m = unit_nport(n);
        core::Transpose2DOptions opt;
        opt.packet_elements = B;
        opt.charge_local = false;
        const auto prog = core::transpose_spt(before, after, m, opt);
        const double ts = sim::Engine(m).run_timing(sim::compile(prog, m)).total_time;
        const double ta = analysis::spt_time(m, pq, static_cast<double>(B));
        EXPECT_NEAR(ts, ta, ts * 1e-10) << "n=" << n << " lg=" << lg << " B=" << B;
      }
    }
  }
}

TEST(CostConformance, StepwiseClosedFormIsExactOnIpsc) {
  // T = (PQ/N t_c + ceil(PQ/(B_m N)) tau) n + 2 PQ/N t_copy, exact on
  // the measured iPSC parameter set across shapes and cube sizes.
  for (const int n : {2, 4, 6}) {
    for (const int lg : {8, 10, 12}) {
      const int half = n / 2;
      const MatrixShape s{lg / 2, lg - lg / 2};
      const auto before = PartitionSpec::two_dim_consecutive(s, half, half);
      const auto after = PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
      const double pq = std::pow(2.0, lg);
      const auto m = sim::MachineParams::ipsc(n);
      const auto prog = core::transpose_2d_stepwise(before, after, m);
      const double ts = sim::Engine(m).run_timing(sim::compile(prog, m)).total_time;
      const double ta = analysis::transpose_2d_stepwise_time(m, pq);
      EXPECT_NEAR(ts, ta, ts * 1e-10) << "n=" << n << " lg=" << lg;
    }
  }
}

TEST(CostConformance, TraceMetricsMatchEngineCountersOn1dSweep) {
  // The Figure 10 sweep (1D transpose, unbuffered vs buffered): the
  // trace-derived metrics must agree exactly with the engine's own
  // counters, and buffering must reduce the message count (its entire
  // purpose) without changing the simulated makespan's accounting.
  for (const int n : {3, 5}) {
    for (const int lg : {10, 13}) {
      const int q = std::max(n, lg / 2);
      const MatrixShape s{lg - q, q};
      const auto before = PartitionSpec::col_cyclic(s, n);
      const auto after = PartitionSpec::col_cyclic(s.transposed(), std::min(n, lg - q));
      const auto m = sim::MachineParams::ipsc(n);

      std::size_t sends_unbuffered = 0, sends_buffered = 0;
      for (const bool buffered : {false, true}) {
        comm::RearrangeOptions opt;
        opt.policy = buffered ? comm::BufferPolicy::buffered()
                              : comm::BufferPolicy::unbuffered();
        const auto t = traced(core::transpose_1d(before, after, n, opt), m);
        const auto report = obs::collect_metrics(t.trace);
        EXPECT_DOUBLE_EQ(report.value("traffic/sends"),
                         static_cast<double>(t.result.total_sends));
        EXPECT_DOUBLE_EQ(report.value("traffic/hops"),
                         static_cast<double>(t.result.total_hops));
        EXPECT_DOUBLE_EQ(report.value("sim/total_time"), t.result.total_time);
        EXPECT_NEAR(report.value("time/copy"), t.result.total_copy_time, 1e-9);
        (buffered ? sends_buffered : sends_unbuffered) = t.result.total_sends;
      }
      EXPECT_LT(sends_buffered, sends_unbuffered) << "n=" << n << " lg=" << lg;
    }
  }
}

TEST(CostConformance, CriticalPathSpansThePhaseMakespan) {
  // On a single-phase direct transpose the extracted critical path must
  // end exactly at the run's makespan and decompose into wire + waits.
  const int n = 4, half = 2;
  const MatrixShape s{5, 5};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = unit_nport(n);
  const auto t = traced(core::transpose_2d_direct(before, after, m), m);

  double last_arrival = 0.0;
  for (const auto& msg : obs::messages_of(t.trace))
    last_arrival = std::max(last_arrival, msg.arrive_time);

  bool found = false;
  for (std::size_t ph = 0; ph < t.result.phases.size(); ++ph) {
    const auto cp = obs::phase_critical_path(t.trace, static_cast<std::int32_t>(ph));
    if (cp.seq == obs::kNoSeq) continue;
    found = true;
    EXPECT_GE(cp.end, cp.start);
    EXPECT_FALSE(cp.segments.empty());
    EXPECT_NEAR(cp.wire_time() + cp.wait_time(), cp.end - cp.start, 1e-9);
    last_arrival = std::max(last_arrival, cp.end);
  }
  ASSERT_TRUE(found);
  // No copies are charged here, so the last arrival is the makespan.
  EXPECT_DOUBLE_EQ(last_arrival, t.result.total_time);
}

}  // namespace
}  // namespace nct
