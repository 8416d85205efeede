// Cross-topology differential suite: the BFS-routed planner's programs
// must execute identically in both engine modes — data and timing-only —
// agree with the pure data semantics and the thread-per-node runtime,
// on every Topology implementation.  Times are compared with exact
// double equality and traces event-by-event, the same bar the hypercube
// golden tests set.
//
// Fuzz trials draw random permutations over random topologies; seed the
// sweep with NCT_FUZZ_SEED (the failing seed is embedded in every
// assertion message).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <random>

#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "topology/routed.hpp"
#include "topology/topology.hpp"

namespace nct {
namespace {

using cube::word;

struct Config {
  const char* label;
  topo::TopologyId id;
};

std::vector<Config> configs() {
  return {
      {"hypercube4", topo::TopologyId{}},
      {"torus4x4", topo::torus_id({4, 4})},
      {"torus2x3x4", topo::torus_id({2, 3, 4})},
      {"mesh4x4", topo::mesh_id({4, 4})},
      {"mesh3x5", topo::mesh_id({3, 5})},
      {"dragonfly2x2", topo::dragonfly_id(2, 2)},
      {"dragonfly4x2", topo::dragonfly_id(4, 2)},
      {"dragonfly2x3", topo::dragonfly_id(2, 3)},
  };
}

int cube_n(const topo::TopologyId& id) { return id.is_cube() ? 4 : 0; }

sim::MachineParams machine_for(const topo::TopologyId& id, sim::Switching sw,
                               sim::PortModel port) {
  sim::MachineParams m = sim::MachineParams::ipsc(cube_n(id));
  m.switching = sw;
  m.port = port;
  if (id.is_cube()) return m;
  return sim::MachineParams::on_topology(id, m);
}

/// Expected result of the routed permutation: slot i of node dest[src]
/// holds element src*e + i.
sim::Memory expected_memory(const topo::Topology& t, const std::vector<word>& dest,
                            word e) {
  sim::Memory mem(static_cast<std::size_t>(t.nodes()));
  for (word src = 0; src < t.nodes(); ++src) {
    auto& slots = mem[static_cast<std::size_t>(dest[static_cast<std::size_t>(src)])];
    slots.resize(static_cast<std::size_t>(e));
    std::iota(slots.begin(), slots.end(), src * e);
  }
  return mem;
}

void expect_same_trace(const obs::TraceSink& a, const obs::TraceSink& b,
                       const std::string& what) {
  EXPECT_EQ(a.dimensions(), b.dimensions()) << what;
  EXPECT_EQ(a.nodes(), b.nodes()) << what;
  EXPECT_EQ(a.phase_labels(), b.phase_labels()) << what;
  ASSERT_EQ(a.events().size(), b.events().size()) << what;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    ASSERT_TRUE(a.events()[i] == b.events()[i])
        << what << ": first divergent event at index " << i;
  }
}

/// Both engine modes plus the data oracles on one program.
void differential(const topo::Topology& t, const sim::Program& program,
                  const sim::MachineParams& m, const sim::Memory& init,
                  const sim::Memory& expected, const std::string& what) {
  obs::TraceSink data_trace, timing_trace;
  const auto engine_with = [&m](obs::TraceSink& sink) {
    sim::EngineOptions opt;
    opt.trace = &sink;
    return sim::Engine(m, opt);
  };

  const auto compiled = sim::compile(program, m);
  const auto data = engine_with(data_trace).run(compiled, init);
  const auto timing = engine_with(timing_trace).run_timing(compiled);

  EXPECT_EQ(data.total_time, timing.total_time) << what;  // exact, not approximate
  EXPECT_EQ(data.total_hops, timing.total_hops) << what;
  EXPECT_EQ(data.memory, expected) << what << " (compiled misplaced data)";
  EXPECT_TRUE(timing.memory.empty()) << what;

  expect_same_trace(data_trace, timing_trace, what + " data-vs-timing");
  EXPECT_EQ(data_trace.nodes(), t.nodes()) << what;
  EXPECT_EQ(data_trace.dimensions(), t.ports()) << what;

  // Pure data semantics (no machine model) and the threaded runtime.
  EXPECT_EQ(sim::apply_data(program, init), expected) << what << " (apply_data)";
  EXPECT_EQ(runtime::execute_program_threads(program, init), expected)
      << what << " (threaded runtime)";
}

TEST(RoutedDifferential, TransposeOnEveryTopologyStoreAndForwardOnePort) {
  for (const Config& c : configs()) {
    const auto t = topo::make_topology(c.id, cube_n(c.id));
    // A rows x cols grid that matches the node count: factor nodes into
    // the most balanced pair.
    word rows = 1;
    for (word r = 1; r * r <= t->nodes(); ++r)
      if (t->nodes() % r == 0) rows = r;
    const word cols = t->nodes() / rows;
    const word e = 4;
    const auto program = topo::plan_routed_transpose(*t, rows, cols, e);
    const auto dest = topo::transpose_permutation(*t, rows, cols);
    differential(*t, program,
                 machine_for(c.id, sim::Switching::store_and_forward,
                             sim::PortModel::one_port),
                 topo::routed_layout(*t, e), expected_memory(*t, dest, e), c.label);
  }
}

TEST(RoutedDifferential, TransposeCutThroughNPort) {
  for (const Config& c : configs()) {
    const auto t = topo::make_topology(c.id, cube_n(c.id));
    word rows = 1;
    for (word r = 1; r * r <= t->nodes(); ++r)
      if (t->nodes() % r == 0) rows = r;
    const word e = 2;
    const auto program = topo::plan_routed_transpose(*t, rows, t->nodes() / rows, e);
    const auto dest = topo::transpose_permutation(*t, rows, t->nodes() / rows);
    differential(
        *t, program,
        machine_for(c.id, sim::Switching::cut_through, sim::PortModel::n_port),
        topo::routed_layout(*t, e), expected_memory(*t, dest, e), c.label);
  }
}

TEST(RoutedDifferential, PacketizedTransposeAgrees) {
  // Splitting each block into 1-element packets multiplies the send
  // count but must not change where data lands or break path identity.
  const auto id = topo::torus_id({4, 4});
  const auto t = topo::make_topology(id, 0);
  topo::RoutedOptions opt;
  opt.packet_elements = 1;
  const word e = 3;
  const auto program = topo::plan_routed_transpose(*t, 4, 4, e, opt);
  const auto dest = topo::transpose_permutation(*t, 4, 4);
  EXPECT_EQ(program.phases.at(0).sends.size(),
            static_cast<std::size_t>((t->nodes() - 4) * e));  // 4 fixed points
  differential(*t, program,
               machine_for(id, sim::Switching::store_and_forward,
                           sim::PortModel::one_port),
               topo::routed_layout(*t, e), expected_memory(*t, dest, e),
               "torus4x4 packetized");
}

TEST(RoutedDifferential, CyclicShiftOnDragonfly) {
  const auto id = topo::dragonfly_id(2, 3);
  const auto t = topo::make_topology(id, 0);
  std::vector<word> dest(static_cast<std::size_t>(t->nodes()));
  for (word x = 0; x < t->nodes(); ++x) dest[static_cast<std::size_t>(x)] = (x + 1) % t->nodes();
  const word e = 2;
  const auto program = topo::plan_routed_permutation(*t, dest, e);
  differential(*t, program,
               machine_for(id, sim::Switching::store_and_forward,
                           sim::PortModel::one_port),
               topo::routed_layout(*t, e), expected_memory(*t, dest, e),
               "dragonfly2x3 cyclic shift");
}

TEST(RoutedDifferential, HypercubeRoutedPlanKeepsCubeTraceShape) {
  // On the cube the generic planner must produce a program whose run
  // records the historical (n dims, 2^n nodes) trace header.
  const auto t = topo::make_topology(topo::TopologyId{}, 3);
  const auto dest = topo::transpose_permutation(*t, 2, 4);
  const auto program = topo::plan_routed_permutation(*t, dest, 2);
  EXPECT_EQ(program.n, 3);
  EXPECT_TRUE(program.topology.is_cube());
  obs::TraceSink trace;
  sim::EngineOptions opt;
  opt.trace = &trace;
  sim::Engine(sim::MachineParams::ipsc(3), opt)
      .run(program, topo::routed_layout(*t, 2));
  EXPECT_EQ(trace.dimensions(), 3);
  EXPECT_EQ(trace.nodes(), 8u);
}

TEST(RoutedPlanner, RejectsNonPermutations) {
  const auto t = topo::make_topology(topo::torus_id({2, 2}), 0);
  EXPECT_THROW(topo::plan_routed_permutation(*t, {0, 0, 1, 2}, 1), std::invalid_argument);
  EXPECT_THROW(topo::plan_routed_permutation(*t, {0, 1, 2}, 1), std::invalid_argument);
  EXPECT_THROW(topo::plan_routed_permutation(*t, {0, 1, 2, 9}, 1), std::invalid_argument);
  EXPECT_THROW(topo::transpose_permutation(*t, 3, 2), std::invalid_argument);
}

TEST(RoutedPlanner, IdentityPermutationMovesNothing) {
  const auto t = topo::make_topology(topo::mesh_id({3, 5}), 0);
  std::vector<word> dest(static_cast<std::size_t>(t->nodes()));
  std::iota(dest.begin(), dest.end(), word{0});
  const auto program = topo::plan_routed_permutation(*t, dest, 4);
  EXPECT_TRUE(program.phases.empty());
}

TEST(TopologyMismatch, CompileRejectsProgramOnWrongMachine) {
  const auto torus = topo::make_topology(topo::torus_id({4, 4}), 0);
  const auto program = topo::plan_routed_transpose(*torus, 4, 4, 2);
  // Same node count, same port count — but a mesh is wired differently.
  const auto mesh_machine = machine_for(topo::mesh_id({4, 4}),
                                        sim::Switching::store_and_forward,
                                        sim::PortModel::one_port);
  EXPECT_THROW(sim::compile(program, mesh_machine), sim::ProgramError);
  sim::Engine engine(mesh_machine);
  EXPECT_THROW(engine.run(program, topo::routed_layout(*torus, 2)), sim::ProgramError);
}

TEST(TopologyMismatch, CubeProgramStillRejectsWrongN) {
  const auto t = topo::make_topology(topo::TopologyId{}, 3);
  const auto program = topo::plan_routed_transpose(*t, 2, 4, 1);
  EXPECT_THROW(sim::compile(program, sim::MachineParams::ipsc(4)), sim::ProgramError);
}

TEST(RoutedDifferential, FuzzRandomPermutationsAcrossTopologies) {
  std::uint64_t seed = 0xd1ffe12e47ull;
  if (const char* s = std::getenv("NCT_FUZZ_SEED"))
    seed = std::strtoull(s, nullptr, 10);
  std::mt19937_64 rng(seed);

  const auto cs = configs();
  for (int trial = 0; trial < 12; ++trial) {
    const Config& c = cs[rng() % cs.size()];
    const auto t = topo::make_topology(c.id, cube_n(c.id));
    std::vector<word> dest(static_cast<std::size_t>(t->nodes()));
    std::iota(dest.begin(), dest.end(), word{0});
    std::shuffle(dest.begin(), dest.end(), rng);
    const word e = 1 + static_cast<word>(rng() % 4);
    topo::RoutedOptions opt;
    opt.packet_elements = rng() % 2 == 0 ? word{0} : word{1 + rng() % e};
    const auto program = topo::plan_routed_permutation(*t, dest, e, opt);
    const auto sw = rng() % 2 == 0 ? sim::Switching::store_and_forward
                                   : sim::Switching::cut_through;
    const auto port =
        rng() % 2 == 0 ? sim::PortModel::one_port : sim::PortModel::n_port;
    differential(*t, program, machine_for(c.id, sw, port), topo::routed_layout(*t, e),
                 expected_memory(*t, dest, e),
                 std::string("NCT_FUZZ_SEED=") + std::to_string(seed) + " trial " +
                     std::to_string(trial) + " " + c.label);
  }
}

}  // namespace
}  // namespace nct
