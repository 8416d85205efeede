#include "core/transpose2d.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "core/transpose1d.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "topology/mpt_paths.hpp"

namespace nct::core {
namespace {

using cube::Encoding;
using cube::MatrixShape;
using cube::PartitionSpec;

sim::MachineParams nport(int n) { return sim::MachineParams::nport(n, 1.0, 0.25); }

void expect_2d(const PartitionSpec& before, const PartitionSpec& after,
               const sim::Program& prog, const sim::MachineParams& m, const char* what) {
  const auto init = transpose_initial_memory(before, m.n, prog.local_slots);
  const auto res = sim::Engine(m).run(prog, init);
  const auto expected =
      transpose_expected_memory(before.shape(), after, m.n, prog.local_slots);
  const auto v = sim::verify_memory(res.memory, expected);
  EXPECT_TRUE(v.ok) << what << ": " << v.message;
}

struct Case2D {
  int p, q, half;
  Encoding enc;
};

class Transpose2D : public ::testing::TestWithParam<Case2D> {};

TEST_P(Transpose2D, SptCorrect) {
  const auto [p, q, half, enc] = GetParam();
  const MatrixShape s{p, q};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half, enc, enc);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half, enc, enc);
  const auto m = nport(2 * half);
  expect_2d(before, after, transpose_spt(before, after, m), m, "spt");
}

TEST_P(Transpose2D, DptCorrect) {
  const auto [p, q, half, enc] = GetParam();
  const MatrixShape s{p, q};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half, enc, enc);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half, enc, enc);
  const auto m = nport(2 * half);
  expect_2d(before, after, transpose_dpt(before, after, m), m, "dpt");
}

TEST_P(Transpose2D, MptCorrect) {
  const auto [p, q, half, enc] = GetParam();
  const MatrixShape s{p, q};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half, enc, enc);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half, enc, enc);
  const auto m = nport(2 * half);
  expect_2d(before, after, transpose_mpt(before, after, m), m, "mpt");
}

TEST_P(Transpose2D, StepwiseCorrect) {
  const auto [p, q, half, enc] = GetParam();
  const MatrixShape s{p, q};
  const auto before = PartitionSpec::two_dim_consecutive(s, half, half, enc, enc);
  const auto after = PartitionSpec::two_dim_consecutive(s.transposed(), half, half, enc, enc);
  auto m = nport(2 * half);
  m.port = sim::PortModel::one_port;
  expect_2d(before, after, transpose_2d_stepwise(before, after, m), m, "stepwise");
}

TEST_P(Transpose2D, DirectCorrect) {
  const auto [p, q, half, enc] = GetParam();
  const MatrixShape s{p, q};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half, enc, enc);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half, enc, enc);
  const auto m = nport(2 * half);
  expect_2d(before, after, transpose_2d_direct(before, after, m), m, "direct");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Transpose2D,
    ::testing::Values(Case2D{2, 2, 1, Encoding::binary}, Case2D{3, 3, 1, Encoding::binary},
                      Case2D{4, 4, 2, Encoding::binary}, Case2D{5, 4, 2, Encoding::binary},
                      Case2D{4, 5, 2, Encoding::binary}, Case2D{3, 3, 1, Encoding::gray},
                      Case2D{4, 4, 2, Encoding::gray}, Case2D{6, 6, 3, Encoding::binary},
                      Case2D{6, 6, 3, Encoding::gray}, Case2D{8, 8, 4, Encoding::binary},
                      Case2D{5, 5, 2, Encoding::gray}, Case2D{7, 6, 3, Encoding::binary}));

TEST(Transpose2D, SptPathsAreEdgeDisjointAcrossNodes) {
  // Section 6.1.1: "Paths for different x's are edge-disjoint" — no
  // directed link is used by packets of two different source nodes.
  const MatrixShape s{4, 4};
  const int half = 2, n = 4;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = nport(n);
  Transpose2DOptions opt;
  opt.packet_elements = 4;
  const auto prog = transpose_spt(before, after, m, opt);
  obs::TraceSink trace;
  sim::EngineOptions eopt;
  eopt.trace = &trace;
  sim::Engine(m, eopt).run(prog, transpose_initial_memory(before, n, prog.local_slots));
  // Map send index -> source node.
  std::vector<word> send_src;
  for (const auto& ph : prog.phases) {
    for (const auto& op : ph.sends) send_src.push_back(op.src);
  }
  // Hop events are the link record: directed link node * n + dim.
  std::map<word, std::set<word>> sources;
  for (const auto& e : trace.events()) {
    if (e.kind != obs::EventKind::hop) continue;
    sources[e.node * static_cast<word>(n) + static_cast<word>(e.dim)].insert(
        send_src.at(e.seq));
  }
  EXPECT_FALSE(sources.empty());
  for (const auto& [link, srcs] : sources) EXPECT_LE(srcs.size(), 1U) << "link " << link;
}

TEST(Transpose2D, SptTimeMatchesPipelineFormula) {
  // T = (ceil(PQ/(B N)) + n - 1)(B tc + tau) for the anti-diagonal nodes
  // (Section 6.1.1), with every node at full distance.
  const MatrixShape s{4, 4};
  const int half = 2, n = 4;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  auto m = nport(n);
  m.element_bytes = 1;
  Transpose2DOptions opt;
  opt.packet_elements = 2;
  opt.charge_local = false;
  const auto prog = transpose_spt(before, after, m, opt);
  const auto res =
      sim::Engine(m).run(prog, transpose_initial_memory(before, n, prog.local_slots));
  const double L = static_cast<double>(s.elements()) / (1 << n);
  const double B = 2.0;
  const double expected = (std::ceil(L / B) + n - 1) * (B * m.tc + m.tau);
  EXPECT_NEAR(res.total_time, expected, 1e-9);
}

TEST(Transpose2D, DptHalvesTransferTime) {
  // For transfer-dominated sizes the DPT is ~ 2x the SPT (Section 6.1.2).
  const MatrixShape s{7, 7};
  const int half = 2, n = 4;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  auto m = nport(n);
  m.tau = 1e-6;
  const auto spt = transpose_spt(before, after, m);
  const auto dpt = transpose_dpt(before, after, m);
  const auto rs =
      sim::Engine(m).run(spt, transpose_initial_memory(before, n, spt.local_slots));
  const auto rd =
      sim::Engine(m).run(dpt, transpose_initial_memory(before, n, dpt.local_slots));
  EXPECT_LT(rd.total_time, rs.total_time);
  EXPECT_NEAR(rs.total_time / rd.total_time, 2.0, 0.35);
}

TEST(Transpose2D, MptBeatsDptForLargeData) {
  // MPT transfer time ~ (n+1)/(2n) PQ/N tc vs DPT's PQ/(2N) tc ... the
  // multiple paths divide the volume by 2H(x) instead of 2.
  const MatrixShape s{8, 8};
  const int half = 3, n = 6;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  auto m = nport(n);
  m.tau = 1e-6;
  const auto dpt = transpose_dpt(before, after, m);
  const auto mpt = transpose_mpt(before, after, m);
  const auto rd =
      sim::Engine(m).run(dpt, transpose_initial_memory(before, n, dpt.local_slots));
  const auto rm =
      sim::Engine(m).run(mpt, transpose_initial_memory(before, n, mpt.local_slots));
  EXPECT_LT(rm.total_time, rd.total_time);
}

TEST(Transpose2D, Theorem3LowerBound) {
  // T >= max(n tau, PQ/(2N) tc): start-ups bounded by the anti-diagonal
  // distance, transfers by the bisection of the upper-right quadrant.
  const MatrixShape s{6, 6};
  const int half = 2, n = 4;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  auto m = nport(n);
  m.element_bytes = 1;
  for (const auto* which : {"spt", "dpt", "mpt"}) {
    sim::Program prog;
    if (std::string(which) == "spt") {
      prog = transpose_spt(before, after, m);
    } else if (std::string(which) == "dpt") {
      prog = transpose_dpt(before, after, m);
    } else {
      prog = transpose_mpt(before, after, m);
    }
    const auto res =
        sim::Engine(m).run(prog, transpose_initial_memory(before, n, prog.local_slots));
    const double PQ = static_cast<double>(s.elements());
    const double N = static_cast<double>(word{1} << n);
    EXPECT_GE(res.total_time + 1e-12, n * m.tau) << which;
    EXPECT_GE(res.total_time + 1e-12, PQ / (2.0 * N) * m.tc) << which;
  }
}

TEST(Transpose2D, StepwiseCopyChargeMatchesModel) {
  // 2 * PQ/N * t_copy of rearrangement copies (Section 8.2.1).
  const MatrixShape s{4, 4};
  const int half = 2, n = 4;
  const auto before = PartitionSpec::two_dim_consecutive(s, half, half);
  const auto after = PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  auto m = nport(n);
  m.port = sim::PortModel::one_port;
  m.tcopy = 1.0;
  m.element_bytes = 1;
  Transpose2DOptions opt;
  opt.charge_local = false;  // isolate the stage charges
  const auto prog = transpose_2d_stepwise(before, after, m, opt);
  const auto res =
      sim::Engine(m).run(prog, transpose_initial_memory(before, n, prog.local_slots));
  const double L = static_cast<double>(s.elements()) / (1 << n);
  // Off-diagonal nodes each pay 2 L t_copy; the per-node charge shows up
  // in total_copy_time summed over the 12 off-diagonal nodes.
  EXPECT_NEAR(res.total_copy_time, 12 * 2 * L * m.tcopy, 1e-9);
}

TEST(Transpose2D, OptimalPacketHelpers) {
  auto m = nport(4);
  m.tau = 16.0;
  m.tc = 1.0;
  m.element_bytes = 1;
  // B_opt = sqrt(L tau / ((n-1) tc)).
  EXPECT_EQ(spt_optimal_packet(m, 48), static_cast<word>(16));
  EXPECT_GE(mpt_optimal_k(m, 1 << 12, 2), 1);
  // Start-up dominated: k collapses to 1.
  m.tau = 1e9;
  EXPECT_EQ(mpt_optimal_k(m, 64, 2), 1);
}

TEST(Transpose2D, SharedSlotTablesLeaveTheProgramUnchanged) {
  // Transpose2DOptions::slot_tables is an input cache: SPT, DPT and MPT
  // emit the same program with the tables supplied as without, healthy
  // and under faults.  The fault set cuts the first wire of every path in
  // node 1's MPT family (forcing a breadth-first detour) and of node 2's
  // SPT path (forcing a refill from its family).
  const MatrixShape s{4, 4};
  const int half = 2, n = 4;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = nport(n);
  const std::vector<sim::slot> tables = destination_tables(before, after);
  ASSERT_EQ(tables.size(), static_cast<std::size_t>(before.processors() *
                                                    before.local_elements()));

  const auto family1 = topo::mpt_paths(1, n);
  const auto family2 = topo::mpt_paths(2, n);
  const auto spt2 = topo::mpt_path(2, n, 0);
  fault::FaultSpec spec;
  for (const auto& path : family1) spec.fail_link(1, path[0]);
  spec.fail_link(2, spt2[0]);
  const fault::FaultModel fm(n, spec);

  using Planner = sim::Program (*)(const PartitionSpec&, const PartitionSpec&,
                                   const sim::MachineParams&, Transpose2DOptions);
  for (const fault::FaultModel* faults : {static_cast<const fault::FaultModel*>(nullptr), &fm}) {
    for (const word b : {word{0}, word{1}, word{3}}) {
      Transpose2DOptions plain;
      plain.packet_elements = b;
      plain.faults = faults;
      Transpose2DOptions shared = plain;
      shared.slot_tables = &tables;
      for (const Planner plan : {Planner{transpose_spt}, Planner{transpose_dpt},
                                 Planner{transpose_mpt}}) {
        EXPECT_TRUE(plan(before, after, m, plain) == plan(before, after, m, shared))
            << "B=" << b << (faults ? " faulted" : " healthy");
      }
    }
  }

  // The fault set does force the detour and the refill.
  Transpose2DOptions opt;
  opt.faults = &fm;
  opt.slot_tables = &tables;
  const sim::Program spt = transpose_spt(before, after, m, opt);
  std::size_t detoured = 0, refilled = 0;
  for (const sim::SendOp op : spt.phases.at(0).sends) {
    const std::vector<int> route(op.route.begin(), op.route.end());
    if (op.src == 1) {
      EXPECT_TRUE(op.rerouted);
      EXPECT_EQ(std::find(family1.begin(), family1.end(), route), family1.end());
      ++detoured;
    } else if (op.src == 2) {
      EXPECT_TRUE(op.rerouted);
      EXPECT_NE(route, spt2);
      EXPECT_NE(std::find(family2.begin(), family2.end(), route), family2.end());
      ++refilled;
    }
  }
  EXPECT_GT(detoured, 0u);
  EXPECT_GT(refilled, 0u);
  expect_2d(before, after, spt, m, "spt under faults");

  // Tables of another spec pair are refused, not read out of bounds.
  const std::vector<sim::slot> short_tables(tables.begin(), tables.end() - 1);
  opt.slot_tables = &short_tables;
  EXPECT_THROW(transpose_mpt(before, after, m, opt), std::invalid_argument);
}

}  // namespace
}  // namespace nct::core
