// Timing-model edge cases of the engine beyond the basics in
// engine_test.cpp: cut-through contention, receive-side staging, phase
// statistics and counters.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/model.hpp"
#include "sim/program.hpp"

namespace nct::sim {
namespace {

MachineParams cut(int n) {
  auto m = MachineParams::nport(n, 1.0, 0.5);
  m.switching = Switching::cut_through;
  m.element_bytes = 2;
  return m;
}

TEST(EngineTiming, CutThroughContentionSerializes) {
  // Two messages crossing the same link under cut-through cannot
  // overlap: the second waits for the route to clear.
  Program prog;
  prog.n = 2;
  prog.local_slots = 2;
  Memory mem{{1, 2}, {kEmptySlot, kEmptySlot}, {kEmptySlot, kEmptySlot},
             {kEmptySlot, kEmptySlot}};
  Phase ph;
  ph.sends.add(0, {0, 1}, {0}, {0});  // 0 -> 1 -> 3
  ph.sends.add(0, {0}, {1}, {0});     // 0 -> 1 over the same first link
  prog.phases.push_back(ph);

  const auto res = Engine(cut(2)).run(prog, mem);
  // First: 2 hops * tau + 2 bytes * tc = 2 + 1 = 3.  Second starts when
  // link (0, dim0) frees: the first occupies it [0, tau + serialise] =
  // [0, 2]; second then takes 1 + 1 = 2 -> total 4.
  EXPECT_DOUBLE_EQ(res.total_time, 4.0);
  EXPECT_EQ(res.memory[3][0], 1U);
  EXPECT_EQ(res.memory[1][0], 2U);
}

TEST(EngineTiming, CutThroughOnePortSerializesAtSource) {
  auto m = cut(2);
  m.port = PortModel::one_port;
  Program prog;
  prog.n = 2;
  prog.local_slots = 2;
  Memory mem{{1, 2}, {kEmptySlot, kEmptySlot}, {kEmptySlot, kEmptySlot},
             {kEmptySlot, kEmptySlot}};
  Phase ph;
  ph.sends.add(0, {0}, {0}, {0});  // to 1
  ph.sends.add(0, {1}, {1}, {0});  // to 2, different link
  prog.phases.push_back(ph);
  const auto res = Engine(m).run(prog, mem);
  // Each send: tau + 2 * 0.5 = 2; source port serialises them.
  EXPECT_DOUBLE_EQ(res.total_time, 4.0);
}

TEST(EngineTiming, PostStageChargesReceiver) {
  auto m = MachineParams::nport(1, 1.0, 0.5);
  m.tcopy = 0.25;
  m.element_bytes = 2;
  Program prog;
  prog.n = 1;
  prog.local_slots = 1;
  Memory mem{{7}, {kEmptySlot}};
  Phase ph;
  ph.sends.add(0, {0}, {0}, {0});
  ph.post_stage.push_back(StageOp{1, 8});  // 8 bytes * 0.25 = 2
  prog.phases.push_back(ph);
  const auto res = Engine(m).run(prog, mem);
  // send 2.0 + post stage 2.0.
  EXPECT_DOUBLE_EQ(res.total_time, 4.0);
  EXPECT_DOUBLE_EQ(res.total_copy_time, 2.0);
}

TEST(EngineTiming, PhaseStatsAreFilled) {
  auto m = MachineParams::nport(1, 1.0, 0.5);
  m.element_bytes = 2;
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Memory mem{{1, 2}, {kEmptySlot, kEmptySlot}};
  Phase a;
  a.label = "first";
  a.sends.add(0, {0}, {0, 1}, {0, 1});
  prog.phases.push_back(a);
  const auto res = Engine(m).run(prog, mem);
  ASSERT_EQ(res.phases.size(), 1U);
  EXPECT_EQ(res.phases[0].label, "first");
  EXPECT_EQ(res.phases[0].sends, 1U);
  EXPECT_EQ(res.phases[0].elements, 2U);
  EXPECT_EQ(res.phases[0].hops, 1U);
  EXPECT_DOUBLE_EQ(res.phases[0].duration(), res.total_time);
  EXPECT_EQ(res.total_elements, 2U);
}

TEST(EngineTiming, BusiestLinkTimeTracksBottleneck) {
  auto m = MachineParams::nport(1, 1.0, 0.5);
  m.element_bytes = 2;
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Memory mem{{1, 2}, {kEmptySlot, kEmptySlot}};
  Phase ph;
  ph.sends.add(0, {0}, {0}, {0});
  ph.sends.add(0, {0}, {1}, {1});
  prog.phases.push_back(ph);
  const auto res = Engine(m).run(prog, mem);
  // Both messages cross the same link: 2 * (1 + 1) busy time.
  EXPECT_DOUBLE_EQ(res.max_link_busy, 4.0);
}

TEST(EngineTiming, EmptyProgramIsZeroTime) {
  Program prog;
  prog.n = 2;
  prog.local_slots = 1;
  Memory mem(4, std::vector<word>{0});
  const auto res = Engine(MachineParams::nport(2, 1.0, 1.0)).run(prog, mem);
  EXPECT_DOUBLE_EQ(res.total_time, 0.0);
  EXPECT_TRUE(verify_memory(res.memory, mem).ok);
}

TEST(EngineTiming, ApplyDataMatchesEngine) {
  // The pure data evaluator agrees with the engine on a nontrivial
  // program (multi-phase, copies + multi-hop sends).
  Program prog;
  prog.n = 2;
  prog.local_slots = 2;
  Memory mem{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  Phase a, b;
  a.pre_copies.push_back(CopyOp{0, {0, 1}, {1, 0}, true});
  a.sends.add(0, {0, 1}, {0}, {1});
  b.sends.add(3, {1}, {1}, {0});
  b.post_copies.push_back(CopyOp{1, {0, 1}, {1, 0}, false});
  prog.phases.push_back(a);
  prog.phases.push_back(b);
  const auto res = Engine(MachineParams::nport(2, 1.0, 1.0)).run(prog, mem);
  const auto data = apply_data(prog, mem);
  EXPECT_TRUE(verify_memory(res.memory, data).ok);
}

TEST(EngineTiming, ProgramCounters) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 4;
  Phase ph;
  ph.sends.add(0, {0}, {0, 1}, {0, 1});
  ph.sends.add(1, {0}, {2}, {2});
  prog.phases.push_back(ph);
  prog.phases.push_back(ph);
  EXPECT_EQ(prog.total_sends(), 4U);
  EXPECT_EQ(prog.total_elements_sent(), 6U);
  EXPECT_EQ(prog.nodes(), 2U);
}

}  // namespace
}  // namespace nct::sim
