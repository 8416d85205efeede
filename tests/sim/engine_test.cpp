#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "sim/compile.hpp"
#include "sim/model.hpp"
#include "sim/program.hpp"
#include "topology/hypercube.hpp"

namespace nct::sim {
namespace {

MachineParams simple(int n, PortModel port = PortModel::one_port) {
  MachineParams m;
  m.n = n;
  m.tau = 1.0;
  m.tc = 0.5;       // per byte
  m.tcopy = 0.25;   // per byte
  m.element_bytes = 2;
  m.max_packet_bytes = SIZE_MAX;
  m.port = port;
  m.switching = Switching::store_and_forward;
  return m;
}

Memory two_nodes() {
  // node 0: elements 10, 11;  node 1: elements 20, 21.
  return Memory{{10, 11}, {20, 21}};
}

TEST(Engine, SingleHopTime) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.label = "send";
  ph.sends.add(0, {0}, {0}, {0});
  prog.phases.push_back(ph);

  const Engine engine(simple(1));
  const auto res = engine.run(prog, two_nodes());
  // One element of 2 bytes: tau + 2 * tc = 1 + 1 = 2.
  EXPECT_DOUBLE_EQ(res.total_time, 2.0);
  EXPECT_EQ(res.memory[1][0], 10U);
  EXPECT_EQ(res.memory[0][0], kEmptySlot);
  EXPECT_EQ(res.total_sends, 1U);
  EXPECT_EQ(res.total_elements, 1U);
  EXPECT_EQ(res.total_hops, 1U);
}

TEST(Engine, ExchangeIsConcurrentOnBidirectionalLink) {
  // Both directions of the same link run concurrently (Section 2:
  // exchange costs the same as a single send).
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.sends.add(0, {0}, {0, 1}, {0, 1});
  ph.sends.add(1, {0}, {0, 1}, {0, 1});
  prog.phases.push_back(ph);

  const Engine engine(simple(1));
  const auto res = engine.run(prog, two_nodes());
  // Each: tau + 4 bytes * tc = 1 + 2 = 3, concurrent => 3 total.
  EXPECT_DOUBLE_EQ(res.total_time, 3.0);
  EXPECT_EQ(res.memory[0], (std::vector<word>{20, 21}));
  EXPECT_EQ(res.memory[1], (std::vector<word>{10, 11}));
}

TEST(Engine, OnePortSerializesSends) {
  // Node 0 sends to both neighbours; with one port they serialise.
  Program prog;
  prog.n = 2;
  prog.local_slots = 2;
  Memory mem{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  Phase ph;
  ph.sends.add(0, {0}, {0}, {0});  // to node 1
  ph.sends.add(0, {1}, {1}, {0});  // to node 2
  prog.phases.push_back(ph);

  const auto res1 = Engine(simple(2, PortModel::one_port)).run(prog, mem);
  const auto resn = Engine(simple(2, PortModel::n_port)).run(prog, mem);
  // Each send: tau + 2 * tc = 2.  One-port: 4; n-port: 2.
  EXPECT_DOUBLE_EQ(res1.total_time, 4.0);
  EXPECT_DOUBLE_EQ(resn.total_time, 2.0);
  EXPECT_EQ(res1.memory[1][0], 1U);
  EXPECT_EQ(res1.memory[2][0], 2U);
}

TEST(Engine, OnePortSerializesReceives) {
  // Nodes 1 and 2 both send to node 0: receives serialise on one port.
  Program prog;
  prog.n = 2;
  prog.local_slots = 2;
  Memory mem{{kEmptySlot, kEmptySlot}, {3, 4}, {5, 6}, {7, 8}};
  Phase ph;
  ph.sends.add(1, {0}, {0}, {0});
  ph.sends.add(2, {1}, {0}, {1});
  prog.phases.push_back(ph);

  const auto res1 = Engine(simple(2, PortModel::one_port)).run(prog, mem);
  const auto resn = Engine(simple(2, PortModel::n_port)).run(prog, mem);
  EXPECT_DOUBLE_EQ(res1.total_time, 4.0);
  EXPECT_DOUBLE_EQ(resn.total_time, 2.0);
  EXPECT_EQ(res1.memory[0][0], 3U);
  EXPECT_EQ(res1.memory[0][1], 5U);
}

TEST(Engine, MultiHopStoreAndForward) {
  Program prog;
  prog.n = 2;
  prog.local_slots = 1;
  Memory mem{{42}, {kEmptySlot}, {kEmptySlot}, {kEmptySlot}};
  Phase ph;
  ph.sends.add(0, {0, 1}, {0}, {0});  // 0 -> 1 -> 3
  prog.phases.push_back(ph);

  const auto res = Engine(simple(2)).run(prog, mem);
  // Two hops, each tau + 2 tc = 2: total 4.
  EXPECT_DOUBLE_EQ(res.total_time, 4.0);
  EXPECT_EQ(res.memory[3][0], 42U);
  EXPECT_EQ(res.total_hops, 2U);
}

TEST(Engine, LinkContentionSerializes) {
  // Two messages over the same directed link serialise even with n
  // ports.
  Program prog;
  prog.n = 2;
  prog.local_slots = 2;
  Memory mem{{1, 2}, {kEmptySlot, kEmptySlot}, {kEmptySlot, kEmptySlot},
             {kEmptySlot, kEmptySlot}};
  Phase ph;
  ph.sends.add(0, {0}, {0}, {0});
  ph.sends.add(0, {0}, {1}, {1});
  prog.phases.push_back(ph);

  const auto res = Engine(simple(2, PortModel::n_port)).run(prog, mem);
  EXPECT_DOUBLE_EQ(res.total_time, 4.0);
}

TEST(Engine, PacketizationChargesMultipleStartups) {
  auto m = simple(1);
  m.max_packet_bytes = 2;  // one element per packet
  Program prog;
  prog.n = 1;
  prog.local_slots = 4;
  Memory mem{{1, 2, 3, 4}, {kEmptySlot, kEmptySlot, kEmptySlot, kEmptySlot}};
  Phase ph;
  ph.sends.add(0, {0}, {0, 1, 2, 3}, {0, 1, 2, 3});
  prog.phases.push_back(ph);

  const auto res = Engine(m).run(prog, mem);
  // 8 bytes -> 4 packets: 4 * tau + 8 * tc = 4 + 4 = 8.
  EXPECT_DOUBLE_EQ(res.total_time, 8.0);
}

TEST(Engine, ChargedCopyCost) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.pre_copies.push_back(CopyOp{0, {0, 1}, {1, 0}, true});
  prog.phases.push_back(ph);

  const auto res = Engine(simple(1)).run(prog, two_nodes());
  // 2 elements * 2 bytes * 0.25 = 1.
  EXPECT_DOUBLE_EQ(res.total_time, 1.0);
  EXPECT_EQ(res.memory[0], (std::vector<word>{11, 10}));
  EXPECT_DOUBLE_EQ(res.total_copy_time, 1.0);
}

TEST(Engine, UnchargedCopyIsFree) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.pre_copies.push_back(CopyOp{0, {0, 1}, {1, 0}, false});
  prog.phases.push_back(ph);

  const auto res = Engine(simple(1)).run(prog, two_nodes());
  EXPECT_DOUBLE_EQ(res.total_time, 0.0);
  EXPECT_EQ(res.memory[0], (std::vector<word>{11, 10}));
}

TEST(Engine, CopyDelaysSend) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.pre_copies.push_back(CopyOp{0, {0, 1}, {1, 0}, true});  // 1.0
  ph.sends.add(0, {0}, {0}, {0});              // 2.0
  prog.phases.push_back(ph);

  const auto res = Engine(simple(1)).run(prog, two_nodes());
  EXPECT_DOUBLE_EQ(res.total_time, 3.0);
  // The copy swapped slots first; the send then carries element 11.
  EXPECT_EQ(res.memory[1][0], 11U);
}

TEST(Engine, StagingCharge) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.stage.push_back(StageOp{0, 8});  // 8 bytes * 0.25 = 2
  ph.sends.add(0, {0}, {0}, {0});
  prog.phases.push_back(ph);

  const auto res = Engine(simple(1)).run(prog, two_nodes());
  EXPECT_DOUBLE_EQ(res.total_time, 4.0);
}

TEST(Engine, PhasesBarrier) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase a, b;
  a.sends.add(0, {0}, {0}, {0});  // 2.0
  b.sends.add(1, {0}, {1}, {1});  // 2.0 after barrier
  prog.phases.push_back(a);
  prog.phases.push_back(b);

  const auto res = Engine(simple(1)).run(prog, two_nodes());
  EXPECT_DOUBLE_EQ(res.total_time, 4.0);
  ASSERT_EQ(res.phases.size(), 2U);
  EXPECT_DOUBLE_EQ(res.phases[0].end, 2.0);
  EXPECT_DOUBLE_EQ(res.phases[1].start, 2.0);
}

TEST(Engine, SnapshotSemanticsSwap) {
  // A send reads pre-phase data even if the slot is overwritten by an
  // incoming message in the same phase.
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.sends.add(0, {0}, {0}, {1});
  ph.sends.add(1, {0}, {1}, {0});
  prog.phases.push_back(ph);

  const auto res = Engine(simple(1)).run(prog, two_nodes());
  // Node 0 slot 0 was sent away and delivered to in the same phase: the
  // delivery wins and it carries node 1's *pre-phase* slot 1 value.
  EXPECT_EQ(res.memory[0][0], 21U);
  EXPECT_EQ(res.memory[1][1], 10U);
  // Untouched slots keep their values.
  EXPECT_EQ(res.memory[0][1], 11U);
  EXPECT_EQ(res.memory[1][0], 20U);
}

TEST(Engine, CutThroughPaysStartupOnce) {
  auto m = simple(3);
  m.switching = Switching::cut_through;
  m.port = PortModel::n_port;
  Program prog;
  prog.n = 3;
  prog.local_slots = 1;
  Memory mem(8, std::vector<word>{kEmptySlot});
  mem[0][0] = 9;
  Phase ph;
  ph.sends.add(0, {0, 1, 2}, {0}, {0});
  prog.phases.push_back(ph);

  const auto res = Engine(m).run(prog, mem);
  // 3 hops * tau + 2 bytes * tc = 3 + 1 = 4 (store-and-forward would be
  // 3 * (1 + 1) = 6).
  EXPECT_DOUBLE_EQ(res.total_time, 4.0);
  EXPECT_EQ(res.memory[7][0], 9U);
}

TEST(Engine, ErrorsOnDoubleDelivery) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.sends.add(0, {0}, {0}, {0});
  ph.sends.add(0, {0}, {1}, {0});
  prog.phases.push_back(ph);
  EXPECT_THROW(Engine(simple(1)).run(prog, two_nodes()), ProgramError);
}

TEST(Engine, ErrorsOnEmptyRead) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Memory mem{{kEmptySlot, kEmptySlot}, {1, 2}};
  Phase ph;
  ph.sends.add(0, {0}, {0}, {0});
  prog.phases.push_back(ph);
  EXPECT_THROW(Engine(simple(1)).run(prog, mem), ProgramError);
}

TEST(Engine, ErrorsOnBadRoute) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.sends.add(0, {5}, {0}, {0});
  prog.phases.push_back(ph);
  EXPECT_THROW(Engine(simple(1)).run(prog, two_nodes()), ProgramError);
}

TEST(Engine, LinkTraceRecordsIntervals) {
  // Link occupancy is read from hop events: directed link node * ports +
  // dim, busy over [t0, t1], tagged with the message sequence number.
  obs::TraceSink trace;
  EngineOptions opt;
  opt.trace = &trace;
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.sends.add(0, {0}, {0}, {0});
  prog.phases.push_back(ph);

  Engine(simple(1), opt).run(prog, two_nodes());
  std::vector<obs::TraceEvent> hops;
  for (const auto& e : trace.events())
    if (e.kind == obs::EventKind::hop) hops.push_back(e);
  ASSERT_EQ(hops.size(), 1U);
  EXPECT_EQ(hops[0].node * static_cast<word>(trace.dimensions()) +
                static_cast<word>(hops[0].dim),
            topo::link_index(1, {0, 0}));
  EXPECT_EQ(hops[0].seq, 0U);
  EXPECT_DOUBLE_EQ(hops[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(hops[0].t1, 2.0);
  EXPECT_EQ(obs::peak_link_overlap(trace), 1U);
}

std::string program_error(const std::function<void()>& f) {
  try {
    f();
  } catch (const ProgramError& e) {
    return e.what();
  }
  return "";
}

TEST(Engine, RunRaisesCompileErrorsBeforeDataErrors) {
  // Engine::run(Program) is compile + run: a structural error anywhere in
  // the program is raised before any phase executes, with exactly the
  // message compile() raises on its own — here phase 1's bad route wins
  // over phase 0's read of an empty slot.
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase read_empty;
  read_empty.sends.add(0, {0}, {0}, {0});
  Phase bad_route;
  bad_route.sends.add(1, {5}, {1}, {1});
  prog.phases = {read_empty, bad_route};
  const Memory mem{{kEmptySlot, 11}, {20, 21}};
  const std::string from_compile = program_error([&] { compile(prog, simple(1)); });
  EXPECT_EQ(from_compile, "route dimension out of range");
  EXPECT_EQ(program_error([&] { Engine(simple(1)).run(prog, mem); }), from_compile);

  // A structurally valid program still raises the data-mode errors.
  prog.phases.pop_back();
  EXPECT_EQ(program_error([&] { Engine(simple(1)).run(prog, mem); }).rfind(
                "send reads empty ", 0),
            0U);
  Program copy_prog;
  copy_prog.n = 1;
  copy_prog.local_slots = 2;
  Phase copy_phase;
  copy_phase.pre_copies.push_back(CopyOp{0, {0}, {1}});
  copy_prog.phases.push_back(copy_phase);
  EXPECT_EQ(program_error([&] { Engine(simple(1)).run(copy_prog, mem); }).rfind(
                "copy reads empty ", 0),
            0U);

  // And a mis-sized memory is rejected once the program has compiled.
  EXPECT_EQ(program_error([&] { Engine(simple(1)).run(copy_prog, Memory{{10, 11}}); }),
            "initial memory has wrong node count");
}

TEST(Engine, ZeroDimensionalCubeRunsCopyOnlyPrograms) {
  // n = 0: a single node and no links.  Copy-only programs execute and
  // are charged exactly the copy cost.
  Program prog;
  prog.n = 0;
  prog.local_slots = 2;
  Phase ph;
  ph.label = "local";
  ph.pre_copies.push_back(CopyOp{0, {0, 1}, {1, 0}});
  prog.phases.push_back(ph);

  const Engine engine(simple(0));
  const auto res = engine.run(prog, Memory{{7, 8}});
  EXPECT_EQ(res.memory, (Memory{{8, 7}}));
  EXPECT_DOUBLE_EQ(res.total_time, 1.0);  // 2 elements * 2 bytes * tcopy
  EXPECT_EQ(res.total_hops, 0u);
}

TEST(Engine, VerifyMemoryReportsMismatch) {
  const Memory a{{1, 2}}, b{{1, 3}};
  EXPECT_TRUE(verify_memory(a, a).ok);
  const auto r = verify_memory(a, b);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("slot 1"), std::string::npos);
}

TEST(Engine, MakeMemoryPads) {
  const auto mem = make_memory({{1, 2}, {3}}, 4, 3);
  ASSERT_EQ(mem.size(), 4U);
  EXPECT_EQ(mem[0], (std::vector<word>{1, 2, kEmptySlot}));
  EXPECT_EQ(mem[1], (std::vector<word>{3, kEmptySlot, kEmptySlot}));
  EXPECT_EQ(mem[3], (std::vector<word>{kEmptySlot, kEmptySlot, kEmptySlot}));
}

}  // namespace
}  // namespace nct::sim
