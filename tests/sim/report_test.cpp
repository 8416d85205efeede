#include "sim/report.hpp"

#include <gtest/gtest.h>

#include "comm/all_to_all.hpp"
#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace nct::sim {
namespace {

TEST(Report, DimensionTrafficCountsHops) {
  Program prog;
  prog.n = 3;
  prog.local_slots = 2;
  Phase ph;
  ph.sends.add(0, {0, 2}, {0, 1}, {0, 1});
  ph.sends.add(1, {2}, {0}, {0});
  prog.phases.push_back(ph);
  const auto traffic = dimension_traffic(prog);
  ASSERT_EQ(traffic.size(), 3U);
  EXPECT_EQ(traffic[0].messages, 1U);
  EXPECT_EQ(traffic[0].elements, 2U);
  EXPECT_EQ(traffic[1].messages, 0U);
  EXPECT_EQ(traffic[2].messages, 2U);
  EXPECT_EQ(traffic[2].elements, 3U);
}

TEST(Report, FormatMentionsPhasesAndDims) {
  const auto prog = comm::all_to_all_exchange(3, 2);
  auto m = MachineParams::nport(3, 1.0, 0.5);
  const auto res = Engine(m).run(prog, comm::all_to_all_initial_memory(3, 2));
  const auto text = format_report(prog, res);
  EXPECT_NE(text.find("total time"), std::string::npos);
  EXPECT_NE(text.find("exchange-dim-2"), std::string::npos);
  EXPECT_NE(text.find("dim 0"), std::string::npos);
  EXPECT_NE(text.find("max cumulative link busy"), std::string::npos);
}

TEST(Report, ExchangeTrafficIsBalancedAcrossDimensions) {
  // The exchange algorithm moves the same volume over every dimension.
  const auto prog = comm::all_to_all_exchange(4, 2);
  const auto traffic = dimension_traffic(prog);
  for (const auto& t : traffic) {
    EXPECT_EQ(t.elements, traffic[0].elements) << "dim " << t.dim;
  }
}

TEST(Report, PeakOverlapOneForEdgeDisjointSpt) {
  // SPT paths are edge-disjoint and each carries a single packet train:
  // no directed link is ever used by two packets at once.
  const cube::MatrixShape s{4, 4};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, 2, 2);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), 2, 2);
  const auto m = MachineParams::nport(4, 1.0, 0.25);
  core::Transpose2DOptions opt;
  opt.packet_elements = 4;
  const auto prog = core::transpose_spt(before, after, m, opt);
  obs::TraceSink trace;
  EngineOptions eopt;
  eopt.trace = &trace;
  Engine(m, eopt).run(prog, core::transpose_initial_memory(before, 4, prog.local_slots));
  EXPECT_EQ(obs::peak_link_overlap(trace), 1U);
}

TEST(Report, PeakOverlapZeroWithoutTrace) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 1;
  Memory mem{{1}, {kEmptySlot}};
  EXPECT_EQ(obs::peak_link_overlap(obs::TraceSink{}), 0U);
  obs::TraceSink trace;
  EngineOptions eopt;
  eopt.trace = &trace;
  Engine(MachineParams::nport(1, 1.0, 1.0), eopt).run(prog, mem);
  EXPECT_EQ(obs::peak_link_overlap(trace), 0U);
}

}  // namespace
}  // namespace nct::sim
