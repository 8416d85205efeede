// Remaining paper claims pinned as executable tests.
#include <gtest/gtest.h>

#include "comm/all_to_all.hpp"
#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace nct::core {
namespace {

using cube::MatrixShape;
using cube::PartitionSpec;
using cube::word;

TEST(Corollary4, OneElementPerProcessorTransposeDistanceTwoExchanges) {
  // "If the number of processors is equal to the number of matrix
  // elements, matrix transposition performed through a sequence of
  // exchanges requires m/2 exchanges, each requiring communication over
  // a distance of two."
  const MatrixShape s{3, 3};
  const int half = 3, n = 6;  // 2^6 processors, 2^6 elements
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = sim::MachineParams::nport(n, 1.0, 1.0);
  const auto prog = transpose_2d_stepwise(before, after, m);
  std::size_t comm_phases = 0;
  for (const auto& ph : prog.phases) {
    if (ph.sends.empty()) continue;
    ++comm_phases;
    for (const auto& op : ph.sends) EXPECT_EQ(op.route.size(), 2U);
  }
  EXPECT_EQ(comm_phases, static_cast<std::size_t>(s.m() / 2));
  // And it is correct.
  const auto init = transpose_initial_memory(before, n, prog.local_slots);
  const auto res = sim::Engine(m).run(prog, init);
  EXPECT_TRUE(sim::verify_memory(res.memory,
                                 transpose_expected_memory(s, after, n, prog.local_slots))
                  .ok);
}

TEST(Definition16, MptWavesNeverOverlapOnALink) {
  // (2, 2H)-disjointness observed end to end: with two waves of packets
  // per path no directed link ever carries two packets at once.
  const MatrixShape s{6, 6};
  const int half = 3, n = 6;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = sim::MachineParams::nport(n, 1.0, 0.25);
  Transpose2DOptions opt;
  opt.mpt_k = 1;  // 4H packets = two waves per path
  const auto prog = transpose_mpt(before, after, m, opt);
  obs::TraceSink trace;
  sim::EngineOptions eopt;
  eopt.trace = &trace;
  const auto res = sim::Engine(m, eopt).run(
      prog, transpose_initial_memory(before, n, prog.local_slots));
  EXPECT_EQ(obs::peak_link_overlap(trace), 1U);
  EXPECT_TRUE(sim::verify_memory(res.memory,
                                 transpose_expected_memory(s, after, n, prog.local_slots))
                  .ok);
}

TEST(Section5, ExchangeScanDirectionDoesNotChangeTheResult) {
  // "The loop can also be performed with the loop index running in the
  // opposite order."
  const int n = 4;
  const word K = 2;
  for (const bool descending : {true, false}) {
    const auto prog = comm::all_to_all_exchange(n, K, comm::BufferPolicy::buffered(),
                                                descending);
    auto m = sim::MachineParams::nport(n, 1.0, 0.25);
    m.port = sim::PortModel::one_port;
    const auto res = sim::Engine(m).run(prog, comm::all_to_all_initial_memory(n, K));
    EXPECT_TRUE(
        sim::verify_memory(res.memory, comm::all_to_all_expected_memory(n, K)).ok)
        << "descending=" << descending;
  }
}

TEST(Section5, AscendingScanFragmentsTheFirstExchange) {
  // Scanning upward, the first exchange already works on many blocks
  // (the shuffle-free layout), so unbuffered start-ups are worse.
  const int n = 4;
  const word K = 4;
  const auto desc =
      comm::all_to_all_exchange(n, K, comm::BufferPolicy::unbuffered(), true);
  const auto asc =
      comm::all_to_all_exchange(n, K, comm::BufferPolicy::unbuffered(), false);
  // Same totals over the whole run...
  EXPECT_EQ(desc.total_elements_sent(), asc.total_elements_sent());
  // ...but the descending scan's first phase is one message per node.
  EXPECT_EQ(desc.phases.front().sends.size(), static_cast<std::size_t>(16));
  EXPECT_GT(asc.phases.front().sends.size(), desc.phases.front().sends.size());
}

TEST(Lemma8, SomeElementTraversesAllRealDimensions) {
  // 2D same-scheme transposes carry the anti-diagonal blocks across all
  // 2 n_c dimensions: the longest route equals n.
  const MatrixShape s{4, 4};
  const int half = 2, n = 4;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = sim::MachineParams::nport(n, 1.0, 0.25);
  const auto prog = transpose_spt(before, after, m);
  std::size_t longest = 0;
  for (const auto& ph : prog.phases) {
    for (const auto& op : ph.sends) longest = std::max(longest, op.route.size());
  }
  EXPECT_EQ(longest, static_cast<std::size_t>(n));
}

TEST(Corollary5, OneDimensionalTransposeElementsTraverseAllRealDims) {
  // |R_b| = |R_a| = n: some element crosses n dimensions in total.
  const MatrixShape s{4, 4};
  const int n = 3;
  const auto before = PartitionSpec::col_cyclic(s, n);
  const auto after = PartitionSpec::col_cyclic(s.transposed(), n);
  const auto prog = transpose_1d_direct(before, after, n);
  std::size_t longest = 0;
  for (const auto& ph : prog.phases) {
    for (const auto& op : ph.sends) longest = std::max(longest, op.route.size());
  }
  EXPECT_EQ(longest, static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace nct::core
