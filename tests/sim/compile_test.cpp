// Golden runs of the compiled executor: for real planner programs
// across the full machine grid (iPSC/CM parameter sets × one-port/
// n-port × store-and-forward/cut-through), Engine::run(compile(program))
// in data mode and Engine::run_timing(compile(program)) must reproduce
// the pinned total time exactly, the pinned event stream byte for byte
// (FNV-1a 64 of its binary export) and, in data mode, the pinned final
// memory.  The literals were recorded from the heap-based interpreter
// that preceded the compiled executor; the two modes must also agree
// with each other on every phase statistic.
#include "sim/compile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "comm/all_to_all.hpp"
#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "support/golden_digest.hpp"
#include "topology/hypercube.hpp"
#include "topology/mpt_paths.hpp"
#include "topology/routed.hpp"

namespace nct::sim {
namespace {

void expect_same_stats(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.total_time, b.total_time);  // exact: same arithmetic, same order
  EXPECT_EQ(a.total_copy_time, b.total_copy_time);
  EXPECT_EQ(a.total_sends, b.total_sends);
  EXPECT_EQ(a.total_elements, b.total_elements);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.max_link_busy, b.max_link_busy);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].label, b.phases[i].label);
    EXPECT_EQ(a.phases[i].start, b.phases[i].start);
    EXPECT_EQ(a.phases[i].end, b.phases[i].end);
    EXPECT_EQ(a.phases[i].sends, b.phases[i].sends);
    EXPECT_EQ(a.phases[i].elements, b.phases[i].elements);
    EXPECT_EQ(a.phases[i].hops, b.phases[i].hops);
    EXPECT_EQ(a.phases[i].copy_time, b.phases[i].copy_time);
  }
}

void expect_same_trace(const obs::TraceSink& a, const obs::TraceSink& b) {
  EXPECT_EQ(a.dimensions(), b.dimensions());
  EXPECT_EQ(a.phase_labels(), b.phase_labels());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    ASSERT_TRUE(x == y) << "first divergent event at index " << i << ": "
                        << obs::event_kind_name(x.kind) << " vs "
                        << obs::event_kind_name(y.kind) << ", t0 " << x.t0 << " vs "
                        << y.t0 << ", node " << x.node << " vs " << y.node;
  }
}

/// A run pinned as data: the exact total time (shortest round-trip
/// literal), and FNV-1a 64 digests of the binary event trace and of the
/// final memory image.
struct Pinned {
  double total_time;
  std::uint64_t trace;
  std::uint64_t memory;
};

void expect_pinned(const RunResult& r, const obs::TraceSink& trace, const Pinned& want,
                   const char* mode) {
  EXPECT_EQ(r.total_time, want.total_time) << mode;
  EXPECT_EQ(golden::trace_digest(trace), want.trace) << mode;
}

/// Run data mode and timing-only mode against the pinned values and
/// check they agree with each other.
void golden(const Program& prog, const MachineParams& m, const Memory& init,
            const Pinned& want) {
  obs::TraceSink data_trace, timing_trace;
  const auto with_trace = [&m](obs::TraceSink& sink) {
    EngineOptions opt;
    opt.trace = &sink;
    return Engine(m, opt);
  };
  const auto compiled = compile(prog, m);
  const auto data = with_trace(data_trace).run(compiled, init);
  const auto timing = with_trace(timing_trace).run_timing(compiled);

  expect_pinned(data, data_trace, want, "data");
  expect_pinned(timing, timing_trace, want, "timing-only");
  EXPECT_EQ(golden::memory_digest(data.memory), want.memory);
  expect_same_stats(data, timing);
  EXPECT_TRUE(timing.memory.empty());
}

/// The four port/switching combinations on top of a parameter set.
std::vector<MachineParams> machine_grid(MachineParams base) {
  std::vector<MachineParams> grid;
  for (const auto port : {PortModel::one_port, PortModel::n_port}) {
    for (const auto sw : {Switching::store_and_forward, Switching::cut_through}) {
      auto m = base;
      m.port = port;
      m.switching = sw;
      grid.push_back(m);
    }
  }
  return grid;
}

// Pinned runs, in machine_grid order: iPSC then CM, each one-port SF/CT,
// n-port SF/CT.
constexpr Pinned kStepwise[] = {
    {0.020352, 0xc3e50efb02aa7276ULL, 0xe5819d075f4d79d5ULL},
    {0.020319999999999998, 0xa2809edc8d56e68aULL, 0xe5819d075f4d79d5ULL},
    {0.020352, 0xc3e50efb02aa7276ULL, 0xe5819d075f4d79d5ULL},
    {0.020319999999999998, 0xa2809edc8d56e68aULL, 0xe5819d075f4d79d5ULL},
    {0.0002112, 0x76a454cab847542aULL, 0xe5819d075f4d79d5ULL},
    {0.0001472, 0xdd270dd3ffc2c3c2ULL, 0xe5819d075f4d79d5ULL},
    {0.0002112, 0x76a454cab847542aULL, 0xe5819d075f4d79d5ULL},
    {0.0001472, 0xdd270dd3ffc2c3c2ULL, 0xe5819d075f4d79d5ULL},
};

// Same order as kStepwise.
constexpr Pinned kDirect[] = {
    {0.020136, 0xc37e3cb6685c5eb6ULL, 0xa3c8df434cae2bd5ULL},
    {0.03012, 0x2ca87340a5e08324ULL, 0xa3c8df434cae2bd5ULL},
    {0.020136, 0xc37e3cb6685c5eb6ULL, 0xa3c8df434cae2bd5ULL},
    {0.03012, 0x2ca87340a5e08324ULL, 0xa3c8df434cae2bd5ULL},
    {0.0002088, 0xc708b25b0baec562ULL, 0xa3c8df434cae2bd5ULL},
    {0.00021679999999999998, 0xa8c12da0bb95a4a7ULL, 0xa3c8df434cae2bd5ULL},
    {0.0002088, 0xc708b25b0baec562ULL, 0xa3c8df434cae2bd5ULL},
    {0.00021679999999999998, 0xa8c12da0bb95a4a7ULL, 0xa3c8df434cae2bd5ULL},
};

// Same order as kStepwise.
constexpr Pinned kTranspose1d[] = {
    {0.015624, 0x2a27574a69067ae6ULL, 0x97eb0cbc67bbc3cdULL},
    {0.015624000000000002, 0x03a75a137e628a52ULL, 0x97eb0cbc67bbc3cdULL},
    {0.015624, 0x2a27574a69067ae6ULL, 0x97eb0cbc67bbc3cdULL},
    {0.015624000000000002, 0x03a75a137e628a52ULL, 0x97eb0cbc67bbc3cdULL},
    {0.00016240000000000002, 0xc8349f72ed863c12ULL, 0x97eb0cbc67bbc3cdULL},
    {0.0001624, 0x16b1860829a96c8aULL, 0x97eb0cbc67bbc3cdULL},
    {0.00016240000000000002, 0xc8349f72ed863c12ULL, 0x97eb0cbc67bbc3cdULL},
    {0.0001624, 0x16b1860829a96c8aULL, 0x97eb0cbc67bbc3cdULL},
};

// iPSC with 8-byte packets: one-port SF/CT, n-port SF/CT.
constexpr Pinned kAllToAll[] = {
    {0.12249599999999998, 0x4f79bc5f2c5b6250ULL, 0x6573a73a584070cdULL},
    {0.017496, 0x344989e53a6867bcULL, 0x6573a73a584070cdULL},
    {0.12249599999999998, 0x4f79bc5f2c5b6250ULL, 0x6573a73a584070cdULL},
    {0.017496, 0x344989e53a6867bcULL, 0x6573a73a584070cdULL},
};

TEST(CompileGolden, Transpose2dStepwiseAcrossMachineGrid) {
  const int n = 4, half = 2;
  const cube::MatrixShape s{3, 3};
  const auto before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  std::size_t i = 0;
  for (const auto& base : {MachineParams::ipsc(n), MachineParams::cm(n)}) {
    for (const auto& m : machine_grid(base)) {
      const auto prog = core::transpose_2d_stepwise(before, after, m);
      const auto init = core::transpose_initial_memory(before, n, prog.local_slots);
      golden(prog, m, init, kStepwise[i++]);
    }
  }
}

TEST(CompileGolden, Transpose2dDirectAcrossMachineGrid) {
  const int n = 4, half = 2;
  const cube::MatrixShape s{3, 3};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  std::size_t i = 0;
  for (const auto& base : {MachineParams::ipsc(n), MachineParams::cm(n)}) {
    for (const auto& m : machine_grid(base)) {
      const auto prog = core::transpose_2d_direct(before, after, m);
      const auto init = core::transpose_initial_memory(before, n, prog.local_slots);
      golden(prog, m, init, kDirect[i++]);
    }
  }
}

TEST(CompileGolden, Transpose1dWithBufferingAndStaging) {
  const int n = 3;
  const cube::MatrixShape s{3, 3};
  const auto before = cube::PartitionSpec::col_consecutive(s, n);
  const auto after = cube::PartitionSpec::col_consecutive(s.transposed(), n);
  comm::RearrangeOptions opt;
  opt.policy = comm::BufferPolicy::optimal(139);
  const auto prog = core::transpose_1d(before, after, n, opt);
  const auto init = core::transpose_initial_memory(before, n, prog.local_slots);
  std::size_t i = 0;
  for (const auto& base : {MachineParams::ipsc(n), MachineParams::cm(n)}) {
    for (const auto& m : machine_grid(base)) golden(prog, m, init, kTranspose1d[i++]);
  }
}

TEST(CompileGolden, AllToAllPacketized) {
  // Exercises max_packet_bytes > 1 packet per hop plus exchange traffic.
  const int n = 3;
  const word k = 4;
  const auto prog = comm::all_to_all_exchange(n, k);
  const auto init = comm::all_to_all_initial_memory(n, k);
  auto m = MachineParams::ipsc(n);
  m.max_packet_bytes = 8;
  std::size_t i = 0;
  for (const auto& mm : machine_grid(m)) golden(prog, mm, init, kAllToAll[i++]);
}

TEST(CompileGolden, LinkTraceMatches) {
  // The hop events are the link record: summed per directed link in
  // event order they reproduce max_link_busy bit for bit, in data mode
  // and timing-only mode alike, and the two modes list the same hops.
  const int n = 3;
  const word k = 2;
  const auto prog = comm::all_to_all_exchange(n, k);
  const auto init = comm::all_to_all_initial_memory(n, k);
  const auto m = MachineParams::ipsc(n);
  const auto busiest = [](const obs::TraceSink& trace) {
    std::map<word, double> busy;
    for (const auto& e : trace.events())
      if (e.kind == obs::EventKind::hop)
        busy[e.node * static_cast<word>(trace.dimensions()) + static_cast<word>(e.dim)] +=
            e.t1 - e.t0;
    double mx = 0.0;
    for (const auto& [link, t] : busy) mx = std::max(mx, t);
    return mx;
  };
  obs::TraceSink data_trace, timing_trace;
  EngineOptions opt;
  opt.trace = &data_trace;
  const auto compiled = compile(prog, m);
  const auto data = Engine(m, opt).run(compiled, init);
  opt.trace = &timing_trace;
  const auto timing = Engine(m, opt).run_timing(compiled);
  EXPECT_GT(data.max_link_busy, 0.0);
  EXPECT_EQ(busiest(data_trace), data.max_link_busy);
  EXPECT_EQ(busiest(timing_trace), timing.max_link_busy);
  expect_same_trace(data_trace, timing_trace);
}

/// One send from node 0's slot 0 along `route` into `dst_slot`.
Program one_send_program(const std::vector<int>& route = {0}, slot dst_slot = 0) {
  Program prog;
  prog.n = 1;
  prog.local_slots = 2;
  Phase ph;
  ph.sends.add(0, route, {{0}}, {{dst_slot}});
  prog.phases.push_back(ph);
  return prog;
}

TEST(Compile, ValidatesRouteDimension) {
  const auto prog = one_send_program({5});
  EXPECT_THROW(compile(prog, MachineParams::nport(1)), ProgramError);
}

TEST(Compile, ValidatesEmptyRoute) {
  const auto prog = one_send_program({});
  EXPECT_THROW(compile(prog, MachineParams::nport(1)), ProgramError);
}

TEST(Compile, ValidatesSlotRange) {
  const auto prog = one_send_program({0}, 7);
  EXPECT_THROW(compile(prog, MachineParams::nport(1)), ProgramError);
}

TEST(Compile, ValidatesDoubleDeliveryAtCompileTime) {
  auto prog = one_send_program();
  prog.phases[0].sends.add(0, {0}, {1}, {0});  // same dst slot
  EXPECT_THROW(compile(prog, MachineParams::nport(1)), ProgramError);
}

TEST(Compile, SameDstSlotInDifferentPhasesIsFine) {
  auto prog = one_send_program();
  Phase ph2;
  ph2.sends.add(1, {0}, {0}, {0});
  prog.phases.push_back(ph2);
  EXPECT_NO_THROW(compile(prog, MachineParams::nport(1)));
}

/// The ProgramError message compile() raises for `prog`, or "" if none.
std::string compile_error(const Program& prog, const MachineParams& m) {
  try {
    compile(prog, m);
  } catch (const ProgramError& e) {
    return e.what();
  }
  return "";
}

TEST(Compile, SparseDoubleDeliveryCheckMatchesTheDenseOne) {
  // Above 2^24 node-slots compile sorts each phase's delivered keys
  // instead of stamping a dense map; it must reject the same programs
  // with the same message, and still allow reuse across phases.
  const auto m = MachineParams::nport(1);
  for (const word slots : {word{2}, word{1} << 24}) {
    SCOPED_TRACE(slots);
    auto prog = one_send_program({0}, 1);
    prog.local_slots = slots;
    prog.phases[0].sends.add(0, {0}, {1}, {1});
    EXPECT_EQ(compile_error(prog, m), "double delivery to node 1 slot 1");

    auto two_phases = one_send_program();
    two_phases.local_slots = slots;
    Phase ph2;
    ph2.sends.add(1, {0}, {0}, {0});
    two_phases.phases.push_back(ph2);
    EXPECT_EQ(compile_error(two_phases, m), "");
  }
}

TEST(Compile, RejectsLinkSpacesBeyond32BitIds) {
  // 2^28 nodes x 28 ports is about 7.5e9 directed links: their ids do
  // not fit the uint32_t link pool, so compile refuses the machine up
  // front instead of wrapping, before allocating anything per node.
  Program prog;
  prog.n = 28;
  prog.local_slots = 1;
  prog.phases.emplace_back();
  EXPECT_EQ(compile_error(prog, MachineParams::nport(28)),
            "machine has more directed links than 32-bit link ids address");
}

TEST(Compile, RejectsLocalSlotsBeyond32Bits) {
  // Slots are 32-bit: 2^32 local slots (indices up to 2^32 - 1) still
  // compile, one more is refused before anything per node is allocated.
  auto prog = one_send_program();
  prog.local_slots = word{1} << 32;
  EXPECT_EQ(compile_error(prog, MachineParams::nport(1)), "");
  prog.local_slots += 1;
  EXPECT_EQ(compile_error(prog, MachineParams::nport(1)),
            "program has more local slots than 32-bit slots address");
}

TEST(Compile, RejectsNodesBeyond32Bits) {
  // Send records hold 32-bit node ids: a 33-cube is refused up front,
  // before its (also too large) link space is even considered.
  Program prog;
  prog.n = 33;
  prog.local_slots = 1;
  prog.phases.emplace_back();
  EXPECT_EQ(compile_error(prog, MachineParams::nport(33)),
            "machine has more nodes than 32-bit node ids address");
}

TEST(Compile, ValidatesDimensionMismatch) {
  const auto prog = one_send_program();
  EXPECT_THROW(compile(prog, MachineParams::nport(2)), ProgramError);
}

TEST(Engine, RejectsCompiledProgramForDifferentMachine) {
  const auto prog = one_send_program();
  const auto compiled = compile(prog, MachineParams::nport(1, 1.0, 0.5));
  EXPECT_THROW(Engine(MachineParams::nport(1, 2.0, 0.5)).run_timing(compiled), ProgramError);
}

TEST(Engine, TimingOnlySkipsDataDependentErrors) {
  // Reading an empty slot is a data-mode error; timing-only mode never
  // touches memory and must not throw.
  const auto prog = one_send_program();
  const auto m = MachineParams::nport(1, 1.0, 0.5);
  const auto compiled = compile(prog, m);
  const Memory empty_mem{{kEmptySlot, kEmptySlot}, {kEmptySlot, kEmptySlot}};
  EXPECT_THROW(Engine(m).run(compiled, empty_mem), ProgramError);
  EXPECT_NO_THROW(Engine(m).run_timing(compiled));
}

/// The global link id of every hop of `prog`, in program order, walked
/// with the topology's neighbor/link_index.
std::vector<std::vector<std::uint64_t>> walk_route_links(const Program& prog,
                                                         const topo::Topology& t) {
  std::vector<std::vector<std::uint64_t>> per_phase;
  for (const Phase& ph : prog.phases) {
    auto& ids = per_phase.emplace_back();
    for (const SendOp& op : ph.sends) {
      word at = op.src;
      for (const int d : op.route) {
        ids.push_back(static_cast<std::uint64_t>(t.link_index(at, d)));
        at = t.neighbor(at, d);
      }
    }
  }
  return per_phase;
}

/// Checks the compacted link space against the walked routes:
/// active_links() is strictly increasing and is exactly the set of
/// walked global link ids, and active_links()[link_pool()[h]] is the
/// walked id of hop h, in program order.
void expect_active_links_are_route_links(const Program& prog, const MachineParams& m) {
  const auto compiled = compile(prog, m);
  std::vector<std::uint64_t> walked;
  for (const auto& ids : walk_route_links(prog, compiled.topology()))
    walked.insert(walked.end(), ids.begin(), ids.end());

  const auto& active = compiled.active_links();
  const auto& pool = compiled.link_pool();
  for (std::size_t i = 1; i < active.size(); ++i)
    ASSERT_LT(active[i - 1], active[i]) << "active_links not strictly increasing at " << i;

  std::vector<std::uint64_t> want = walked;
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(std::vector<std::uint64_t>(active.begin(), active.end()), want);

  ASSERT_EQ(pool.size(), walked.size());
  for (std::size_t h = 0; h < walked.size(); ++h) {
    ASSERT_LT(pool[h], active.size()) << "hop " << h;
    ASSERT_EQ(static_cast<std::uint64_t>(active[pool[h]]), walked[h]) << "hop " << h;
  }
}

TEST(Compile, ActiveLinksAreTheSortedRouteLinks) {
  const int n = 4, half = 2;
  const cube::MatrixShape s{3, 3};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto cube_m = MachineParams::ipsc(n);

  const auto spt = core::transpose_spt(before, after, cube_m);
  const auto mpt = core::transpose_mpt(before, after, cube_m);
  expect_active_links_are_route_links(spt, cube_m);
  expect_active_links_are_route_links(mpt, cube_m);

  for (const auto& id :
       {topo::torus_id({4, 3}), topo::mesh_id({3, 4}), topo::dragonfly_id(2, 2)}) {
    SCOPED_TRACE(id.name(0));
    const auto t = topo::make_topology(id, 0);
    const word rows = id.kind == topo::TopoKind::dragonfly ? 2 : 3;
    const auto prog = topo::plan_routed_transpose(*t, rows, t->nodes() / rows, 2);
    expect_active_links_are_route_links(prog,
                                        MachineParams::on_topology(id, MachineParams::ipsc(0)));
  }

  // A cut wire on node 1's first MPT path forces detours.
  const fault::FaultModel fm(n, fault::FaultSpec{}.fail_link(1, topo::mpt_paths(1, n)[0][0]));
  core::Transpose2DOptions topt;
  topt.faults = &fm;
  const auto faulted = core::transpose_mpt(before, after, cube_m, topt);
  std::size_t rerouted = 0;
  for (const Phase& ph : faulted.phases)
    for (const SendOp& op : ph.sends) rerouted += op.rerouted ? 1 : 0;
  EXPECT_GT(rerouted, 0u);
  expect_active_links_are_route_links(faulted, cube_m);

  // SPT's phases followed by MPT's on the same cube: later phases reuse
  // links the earlier ones already ranked.
  Program both = spt;
  both.local_slots = std::max(spt.local_slots, mpt.local_slots);
  both.phases.insert(both.phases.end(), mpt.phases.begin(), mpt.phases.end());
  const auto phases = walk_route_links(both, topo::HypercubeTopology(n));
  std::vector<std::uint64_t> seen, reused;
  for (const auto& ids : phases) {
    for (const auto li : ids)
      if (std::binary_search(seen.begin(), seen.end(), li)) reused.push_back(li);
    seen.insert(seen.end(), ids.begin(), ids.end());
    std::sort(seen.begin(), seen.end());
  }
  EXPECT_FALSE(reused.empty());
  expect_active_links_are_route_links(both, cube_m);
}

/// The bytes every pool of `cp` holds in use (size, not capacity).
std::size_t pool_bytes_in_use(const CompiledProgram& cp) {
  std::size_t bytes = cp.phases().size() * sizeof(CompiledPhase) +
                      cp.send_ops().size() * sizeof(CompiledSend) +
                      cp.copy_ops().size() * sizeof(CompiledCopy) +
                      cp.stage_ops().size() * sizeof(CompiledStage) +
                      cp.send_costs().size() * sizeof(SendCost) +
                      cp.stage_costs().size() * sizeof(StageCost) +
                      cp.slot_pool().size() * sizeof(slot) +
                      cp.link_pool().size() * sizeof(std::uint32_t) +
                      cp.active_links().size() * sizeof(std::uint32_t) +
                      cp.active_nodes().size() * sizeof(std::uint32_t);
  for (const CompiledPhase& p : cp.phases()) bytes += p.label.size();
  return bytes;
}

/// The cost tables hold exactly one entry per distinct send size and
/// staged volume, each the machine's cost of that size, and every
/// record's index points at its own size's entry.
void expect_cost_tables_are_distinct(const CompiledProgram& cp) {
  const MachineParams& m = cp.machine();
  std::map<std::uint32_t, std::uint32_t> send_index;
  for (const CompiledSend& s : cp.send_ops()) {
    const auto [it, fresh] = send_index.emplace(s.count, s.cost);
    EXPECT_EQ(it->second, s.cost) << "two entries for " << s.count << " elements";
    const std::size_t bytes = std::size_t{s.count} * static_cast<std::size_t>(m.element_bytes);
    ASSERT_LT(s.cost, cp.send_costs().size());
    EXPECT_EQ(cp.send_costs()[s.cost].hop_cost, m.hop_time(bytes));
    EXPECT_EQ(cp.send_costs()[s.cost].serialise, static_cast<double>(bytes) * m.tc);
  }
  EXPECT_EQ(cp.send_costs().size(), send_index.size());
  std::map<std::uint64_t, std::uint32_t> stage_index;
  for (const CompiledStage& st : cp.stage_ops()) {
    ASSERT_LT(st.cost, cp.stage_costs().size());
    const StageCost& c = cp.stage_costs()[st.cost];
    const auto [it, fresh] = stage_index.emplace(c.bytes, st.cost);
    EXPECT_EQ(it->second, st.cost) << "two entries for " << c.bytes << " bytes";
    EXPECT_EQ(c.cost, static_cast<double>(c.bytes) * m.tcopy);
  }
  EXPECT_EQ(cp.stage_costs().size(), stage_index.size());
}

TEST(Compile, HeapBytesCoversEveryPool) {
  // Buffered 1D transpose: staging charges besides sends.
  const cube::MatrixShape s1{3, 3};
  comm::RearrangeOptions ropt;
  ropt.policy = comm::BufferPolicy::optimal(139);
  const auto buffered = compile(
      core::transpose_1d(cube::PartitionSpec::col_consecutive(s1, 3),
                         cube::PartitionSpec::col_consecutive(s1.transposed(), 3), 3, ropt),
      MachineParams::ipsc(3));
  EXPECT_FALSE(buffered.stage_ops().empty());
  EXPECT_GE(buffered.heap_bytes(), pool_bytes_in_use(buffered));
  expect_cost_tables_are_distinct(buffered);

  const auto stepwise = [](int n, int lg) {
    const cube::MatrixShape s{lg, lg};
    const auto before = cube::PartitionSpec::two_dim_consecutive(s, n / 2, n / 2);
    const auto after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), n / 2, n / 2);
    const auto m = MachineParams::ipsc(n);
    return compile(core::transpose_2d_stepwise(before, after, m), m);
  };
  const auto cube4 = stepwise(4, 3);
  const auto cube6 = stepwise(6, 4);
  EXPECT_FALSE(cube4.copy_ops().empty());  // the final local rearrangement
  EXPECT_GE(cube4.heap_bytes(), pool_bytes_in_use(cube4));
  EXPECT_GE(cube6.heap_bytes(), pool_bytes_in_use(cube6));
  expect_cost_tables_are_distinct(cube4);
  expect_cost_tables_are_distinct(cube6);
  EXPECT_GT(cube4.heap_bytes(), 0u);
  EXPECT_GT(cube6.heap_bytes(), cube4.heap_bytes());
}

TEST(CompileGolden, HypercubeEventStreamIsPinned) {
  // The exact event stream of a 4-node cube transpose under iPSC
  // constants, hard-coded.  The topology generalisation (and anything
  // after it) must keep hypercube runs byte-identical: any drift in
  // event order, timestamps, link indexing or payload accounting fails
  // here, not just cross-path agreement.
  topo::HypercubeTopology t(2);
  const auto prog = topo::plan_routed_transpose(t, 2, 2, 1);
  EXPECT_TRUE(prog.topology.is_cube());  // default Program topology is the cube
  const auto m = MachineParams::ipsc(2);
  obs::TraceSink trace;
  EngineOptions opt;
  opt.trace = &trace;
  const auto r = Engine(m, opt).run(prog, topo::routed_layout(t, 1));
  EXPECT_EQ(r.total_time, 0.010008);
  EXPECT_EQ(r.total_hops, 4u);

  EXPECT_EQ(trace.dimensions(), 2);
  EXPECT_EQ(trace.nodes(), 4u);
  EXPECT_EQ(trace.phase_labels(), std::vector<std::string>{"routed permutation"});
  // One 4-byte hop costs tau + 4 * tc; the literals below are the exact
  // shortest round-trip representations of the doubles the engine
  // produced when this stream was pinned (0.010008 is NOT 2 * h in
  // double arithmetic — do not "simplify" these).
  const double h = 0.0050039999999999998;
  const double e2 = 0.010008;
  const std::vector<obs::TraceEvent> want = {
      {obs::EventKind::phase_begin, 0, -1, 0, 0, 0, 0, obs::kNoSeq, 0},
      {obs::EventKind::send_begin, 0, -1, 0, h, 1, 2, 0u, 4},
      {obs::EventKind::hop, 0, 0, 0, h, 1, 0, 0u, 4},
      {obs::EventKind::send_begin, 0, -1, 0, h, 2, 1, 1u, 4},
      {obs::EventKind::hop, 0, 0, 0, h, 2, 3, 1u, 4},
      {obs::EventKind::hop, 0, 1, h, e2, 0, 2, 0u, 4},
      {obs::EventKind::send_end, 0, -1, h, e2, 2, 1, 0u, 4},
      {obs::EventKind::hop, 0, 1, h, e2, 3, 1, 1u, 4},
      {obs::EventKind::send_end, 0, -1, h, e2, 1, 2, 1u, 4},
      {obs::EventKind::phase_end, 0, -1, e2, e2, 0, 0, obs::kNoSeq, 0},
  };
  ASSERT_EQ(trace.events().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(trace.events()[i] == want[i])
        << "event " << i << " drifted: got "
        << obs::event_kind_name(trace.events()[i].kind) << " t0 "
        << trace.events()[i].t0 << " node " << trace.events()[i].node;
  }

  // And the compiled paths replay the pinned stream exactly.
  obs::TraceSink data_trace, timing_trace;
  EngineOptions opt2;
  opt2.trace = &data_trace;
  const auto compiled = compile(prog, m);
  Engine(m, opt2).run(compiled, topo::routed_layout(t, 1));
  opt2.trace = &timing_trace;
  Engine(m, opt2).run_timing(compiled);
  expect_same_trace(trace, data_trace);
  expect_same_trace(trace, timing_trace);
}

}  // namespace
}  // namespace nct::sim
