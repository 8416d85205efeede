// Faults on non-cube topologies: single-link cuts on torus/dragonfly
// reroute through BFS detours with no dropped packets, blocked routes
// without rerouting abort with FaultError, an empty FaultModel leaves
// traces byte-identical to a run with no fault options at all, the
// threaded runtime honours topology-built FaultInjectors, the tuner
// searches faulted non-cube machines, and the cube's fault-avoiding
// routes are pinned by one digest.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <random>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "support/golden_digest.hpp"
#include "topology/routed.hpp"
#include "topology/topology.hpp"
#include "tune/layouts.hpp"
#include "tune/tuner.hpp"

namespace nct {
namespace {

using cube::word;

sim::MachineParams machine_for(const topo::TopologyId& id) {
  return sim::MachineParams::on_topology(id, sim::MachineParams::ipsc(0));
}

/// Expected memory for plan_routed_permutation's data convention.
sim::Memory expected_memory(word nodes, const std::vector<word>& dest, word e) {
  sim::Memory mem(nodes, std::vector<word>(e, sim::kEmptySlot));
  for (word src = 0; src < nodes; ++src)
    for (word i = 0; i < e; ++i) mem[dest[src]][i] = src * e + i;
  return mem;
}

void expect_same_trace(const obs::TraceSink& a, const obs::TraceSink& b) {
  EXPECT_EQ(a.dimensions(), b.dimensions());
  EXPECT_EQ(a.nodes(), b.nodes());
  EXPECT_EQ(a.phase_labels(), b.phase_labels());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i)
    EXPECT_TRUE(a.events()[i] == b.events()[i]) << "event " << i;
}

/// A planner router that detours around `model`'s permanent cuts.
topo::RoutedOptions avoid(const std::shared_ptr<const topo::Topology>& t,
                          const fault::FaultModel& model) {
  topo::RoutedOptions opt;
  opt.router = [t, &model](word src, word dst) {
    auto r = fault::route_around(*t, src, dst, model);
    if (!r) throw fault::FaultError("no surviving route");
    return *r;
  };
  return opt;
}

struct CutCase {
  topo::TopologyId id;
  word rows, cols;
};

std::vector<CutCase> cut_cases() {
  return {{topo::torus_id({4, 4}), 4, 4},
          {topo::mesh_id({3, 5}), 3, 5},
          {topo::dragonfly_id(4, 2), 4, 4}};
}

TEST(TopoFaults, SingleLinkCutReroutesWithNoLostPackets) {
  for (const auto& c : cut_cases()) {
    const auto t = std::shared_ptr<const topo::Topology>(topo::make_topology(c.id, 0));
    SCOPED_TRACE(t->name());
    const word e = 3;
    const auto healthy = topo::plan_routed_transpose(*t, c.rows, c.cols, e);

    // Cut the first link of the first send's healthy route: that send is
    // now forced onto a detour (on these 2-edge-connected topologies one
    // always exists), so the assertions below are deterministic.
    const auto& first = healthy.phases.at(0).sends.at(0);
    ASSERT_FALSE(first.route.empty());
    const fault::FaultModel model(
        t, fault::FaultSpec{}.fail_link(first.src, first.route[0]));

    const auto detoured =
        topo::plan_routed_transpose(*t, c.rows, c.cols, e, avoid(t, model));

    // The cut matters: at least one send was forced off its BFS route.
    word reroutes = 0;
    for (const auto& op : detoured.phases.at(0).sends) reroutes += op.rerouted ? 1 : 0;
    EXPECT_GT(reroutes, 0u);

    // With the model active the healthy plan must refuse to run...
    sim::EngineOptions faulted;
    faulted.faults = &model;
    const auto m = machine_for(c.id);
    EXPECT_THROW(sim::Engine(m, faulted).run(healthy, topo::routed_layout(*t, e)),
                 fault::FaultError);

    // ...while the detoured plan delivers everything, through all three
    // engine paths.
    const auto dest = topo::transpose_permutation(*t, c.rows, c.cols);
    const auto want = expected_memory(t->nodes(), dest, e);
    const auto r1 = sim::Engine(m, faulted).run(detoured, topo::routed_layout(*t, e));
    EXPECT_EQ(r1.memory, want);
    EXPECT_EQ(r1.total_reroutes, reroutes);
    EXPECT_EQ(r1.total_retries, 0u);  // permanent cut avoided, never waited on

    const auto cp = sim::compile(detoured, m);
    const auto r2 = sim::Engine(m, faulted).run(cp, topo::routed_layout(*t, e));
    EXPECT_EQ(r2.memory, want);
    EXPECT_EQ(r2.total_time, r1.total_time);
    const auto r3 = sim::Engine(m, faulted).run_timing(cp);
    EXPECT_EQ(r3.total_time, r1.total_time);
    EXPECT_EQ(r3.total_hops, r1.total_hops);
  }
}

TEST(TopoFaults, DetourIsLongerButMinimalAmongSurvivors) {
  const auto t = std::shared_ptr<const topo::Topology>(
      topo::make_topology(topo::torus_id({4, 4}), 0));
  const fault::FaultModel model(t, fault::FaultSpec{}.fail_link(1, 0));
  // 1 -> 2 normally one hop over the cut link; the detour must take 3
  // hops (e.g. 1 -> 0 -> 3 -> 2 or around the other ring).
  const auto r = fault::route_around(*t, 1, 2, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 3u);
  word at = 1;
  for (const int p : *r) {
    EXPECT_FALSE(model.permanently_down(t->link_index(at, p)));
    at = t->neighbor(at, p);
    ASSERT_NE(at, topo::kNoNode);
  }
  EXPECT_EQ(at, 2u);
}

TEST(TopoFaults, SeveredNodeIsUnreachable) {
  // Cut every link of dragonfly (2,2) node 0 (1 local + 1 global): no
  // route in, and the planner surfaces FaultError through the router.
  const auto t = std::shared_ptr<const topo::Topology>(
      topo::make_topology(topo::dragonfly_id(2, 2), 0));
  const fault::FaultModel model(t, fault::FaultSpec{}.fail_node(0));
  EXPECT_EQ(fault::route_around(*t, 3, 0, model), std::nullopt);
  // A cyclic shift makes node 0 a real destination (the transpose would
  // fix it in place), so planning must surface the unreachability.
  std::vector<word> shift(t->nodes());
  for (word x = 0; x < t->nodes(); ++x) shift[x] = (x + 1) % t->nodes();
  EXPECT_THROW(topo::plan_routed_permutation(*t, shift, 1, avoid(t, model)),
               fault::FaultError);
}

TEST(TopoFaults, EmptyModelLeavesTracesByteIdentical) {
  for (const auto& id : {topo::torus_id({4, 4}), topo::dragonfly_id(4, 2)}) {
    const auto t = topo::make_topology(id, 0);
    SCOPED_TRACE(t->name());
    const auto prog = topo::plan_routed_transpose(*t, 4, 4, 2);
    const auto m = machine_for(id);
    const auto init = topo::routed_layout(*t, 2);

    obs::TraceSink plain_trace;
    sim::EngineOptions plain;
    plain.trace = &plain_trace;
    const auto r_plain = sim::Engine(m, plain).run(prog, init);

    const fault::FaultModel empty_model(
        std::shared_ptr<const topo::Topology>(topo::make_topology(id, 0)),
        fault::FaultSpec{});
    obs::TraceSink faulted_trace;
    sim::EngineOptions faulted;
    faulted.trace = &faulted_trace;
    faulted.faults = &empty_model;
    const auto r_faulted = sim::Engine(m, faulted).run(prog, init);

    EXPECT_EQ(r_plain.total_time, r_faulted.total_time);
    EXPECT_EQ(r_plain.memory, r_faulted.memory);
    expect_same_trace(plain_trace, faulted_trace);
  }
}

TEST(TopoFaults, TransientCutDelaysButDelivers) {
  const auto t = std::shared_ptr<const topo::Topology>(
      topo::make_topology(topo::torus_id({4, 4}), 0));
  const word e = 2;
  const auto prog = topo::plan_routed_transpose(*t, 4, 4, e);
  const auto m = machine_for(t->id());
  // Down until t = 1e6 (far past the healthy finish), so the first hop of
  // the first send is guaranteed to be attempted while the link is down.
  const auto& first = prog.phases.at(0).sends.at(0);
  ASSERT_FALSE(first.route.empty());
  const fault::FaultModel model(
      t, fault::FaultSpec{}.fail_link(first.src, first.route[0],
                                      fault::Window{0.0, 1e6}));
  sim::EngineOptions opt;
  opt.faults = &model;
  const auto faulted = sim::Engine(m, opt).run(prog, topo::routed_layout(*t, e));
  const auto healthy = sim::Engine(m).run(prog, topo::routed_layout(*t, e));
  EXPECT_EQ(faulted.memory, healthy.memory);
  EXPECT_GT(faulted.total_retries, 0u);
  EXPECT_GE(faulted.total_time, 1e6);
}

// ---- threaded runtime + topology-built FaultInjector ------------------

TEST(TopoFaultInjector, ThreadedRuntimeDeliversThroughTransientRefusals) {
  const auto t = std::shared_ptr<const topo::Topology>(
      topo::make_topology(topo::torus_id({4, 4}), 0));
  const word e = 2;
  const auto prog = topo::plan_routed_transpose(*t, 4, 4, e);
  const auto dest = topo::transpose_permutation(*t, 4, 4);
  const auto want = expected_memory(t->nodes(), dest, e);

  runtime::FaultInjector inj(
      *t, fault::FaultSpec{}.fail_link(1, 0, fault::Window{0.0, 1.0}), 2);
  EXPECT_EQ(inj.dimensions(), t->ports());
  EXPECT_EQ(inj.nodes(), t->nodes());

  const auto mem =
      runtime::execute_program_threads(prog, topo::routed_layout(*t, e), inj);
  EXPECT_EQ(mem, want);
}

TEST(TopoFaultInjector, RejectsFaultsOutsideTheTopology) {
  const auto t = topo::make_topology(topo::mesh_id({3, 5}), 0);
  // Port 1 of node 0 is the -x boundary: unwired on a mesh.
  EXPECT_THROW(
      runtime::FaultInjector(*t, fault::FaultSpec{}.fail_link(0, 1)),
      std::invalid_argument);
  EXPECT_THROW(
      runtime::FaultInjector(*t, fault::FaultSpec{}.fail_link(0, 99)),
      std::invalid_argument);
  EXPECT_THROW(
      runtime::FaultInjector(*t, fault::FaultSpec{}.fail_node(15)),
      std::invalid_argument);
}

TEST(TopoFaultInjector, ModelRejectsUnwiredLinks) {
  const auto t = std::shared_ptr<const topo::Topology>(
      topo::make_topology(topo::mesh_id({3, 5}), 0));
  EXPECT_THROW(fault::FaultModel(t, fault::FaultSpec{}.fail_link(0, 1)),
               std::invalid_argument);
  // Dragonfly diagonal: the (g, r) global port with peer group g is unwired.
  const auto d = std::shared_ptr<const topo::Topology>(
      topo::make_topology(topo::dragonfly_id(2, 2), 0));
  word diag = topo::kNoNode;
  for (word node = 0; node < d->nodes(); ++node)
    if (d->neighbor(node, d->ports() - 1) == topo::kNoNode) diag = node;
  ASSERT_NE(diag, topo::kNoNode);
  EXPECT_THROW(
      fault::FaultModel(d, fault::FaultSpec{}.fail_link(diag, d->ports() - 1)),
      std::invalid_argument);
}

// ---- fault-aware tuning off the cube -------------------------------------

std::vector<topo::TopologyId> grid_2x2() {
  return {topo::mesh_id({2, 2}), topo::torus_id({2, 2})};
}

TEST(TopoFaultTune, TransientFaultStillTunesARoutedPlan) {
  const auto p = tune::fig_layout_2d(8, 2);
  for (const auto& id : grid_2x2()) {
    const auto m = sim::MachineParams::on_topology(id, sim::MachineParams::ipsc(2));
    SCOPED_TRACE(m.name);
    tune::TuneOptions healthy_opt;
    healthy_opt.jobs = 2;
    const auto healthy = tune::tune_transpose(p.first, p.second, m, healthy_opt);

    const auto spec = fault::FaultSpec{}.fail_link(0, 0, fault::Window{0.0, 1e-3});
    tune::TuneOptions opt = healthy_opt;
    opt.faults = &spec;
    const auto faulted = tune::tune_transpose(p.first, p.second, m, opt);
    EXPECT_EQ(faulted.choice.family, tune::Family::routed);
    EXPECT_FALSE(faulted.program.phases.empty());
    EXPECT_TRUE(std::isfinite(faulted.measured_seconds));
    EXPECT_GE(faulted.measured_seconds, healthy.measured_seconds);
  }
}

TEST(TopoFaultTune, PermanentCutWinnerCrossesNoDownLink) {
  const auto p = tune::fig_layout_2d(8, 2);
  for (const auto& id : grid_2x2()) {
    const auto m = sim::MachineParams::on_topology(id, sim::MachineParams::ipsc(2));
    SCOPED_TRACE(m.name);
    tune::TuneOptions opt;
    opt.jobs = 2;
    const auto healthy = tune::tune_transpose(p.first, p.second, m, opt);

    // Cut the first hop of the healthy winner's first routed send, so at
    // least one send of every candidate must take another route.
    std::optional<topo::DirectedLink> first;
    for (const auto& ph : healthy.program.phases)
      for (const sim::SendOp op : ph.sends)
        if (!first && !op.route.empty()) first = topo::DirectedLink{op.src, op.route[0]};
    ASSERT_TRUE(first.has_value());
    const auto spec = fault::FaultSpec{}.fail_link(first->from, first->dim);
    opt.faults = &spec;
    const auto faulted = tune::tune_transpose(p.first, p.second, m, opt);
    EXPECT_EQ(faulted.choice.family, tune::Family::routed);

    const fault::FaultModel model(topo::make_topology(id, m.n), spec);
    std::size_t reroutes = 0;
    for (const auto& ph : faulted.program.phases) {
      for (const sim::SendOp op : ph.sends) {
        EXPECT_FALSE(model.route_blocked(op.src, op.route)) << "send from " << op.src;
        reroutes += op.rerouted ? 1 : 0;
      }
    }
    EXPECT_GT(reroutes, 0u);
  }
}

// ---- the cube's fault-avoiding routes, pinned -----------------------------

/// Seeded random fault sets on the n-cube: permanent one-way and two-way
/// link cuts, plus permanent node faults and transient cuts (which must
/// not change planning).  Raw engine draws only, so the sets are the same
/// on every standard library.
fault::FaultSpec random_cube_cuts(int n, std::mt19937_64& rng) {
  const word nodes = word{1} << n;
  const std::uint64_t links = static_cast<std::uint64_t>(nodes) * static_cast<std::uint64_t>(n);
  const std::uint64_t count = 1 + rng() % (links / 4 + 1);
  fault::FaultSpec spec;
  for (std::uint64_t i = 0; i < count; ++i) {
    const word from = static_cast<word>(rng() % nodes);
    const int dim = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    switch (rng() % 8) {
      case 0:
        spec.fail_node(from);
        break;
      case 1:
        spec.fail_link(from, dim, fault::Window{0.0, 1.0});
        break;
      default:
        spec.fail_link(from, dim, fault::Window{}, /*both_directions=*/(rng() & 1) != 0);
    }
  }
  return spec;
}

// Every cube detour under the seeded cut sets, with route_blocked of the
// healthy ascending route, folded into one digest: the routes the cube's
// failure-aware planners take stay byte-identical.
TEST(TopoFaults, CubeDetoursArePinned) {
  std::mt19937_64 rng(20261019u);
  std::uint64_t h = golden::kFnvBasis;
  std::size_t pairs = 0, unreachable = 0;
  for (int n = 1; n <= 6; ++n) {
    const auto cube = topo::make_topology(topo::TopologyId{}, n);
    for (int trial = 0; trial < 10; ++trial) {
      const fault::FaultModel model(cube, random_cube_cuts(n, rng));
      for (word src = 0; src < cube->nodes(); ++src) {
        for (word dst = 0; dst < cube->nodes(); ++dst) {
          const auto r = fault::route_around(*cube, src, dst, model);
          const bool blocked = model.route_blocked(src, cube::bit_positions(src ^ dst));
          golden::fnv1a64(h, static_cast<std::uint64_t>(blocked));
          ++pairs;
          if (!r) {
            ++unreachable;
            golden::fnv1a64(h, ~std::uint64_t{0});
            continue;
          }
          golden::fnv1a64(h, static_cast<std::uint64_t>(r->size()));
          for (const int d : *r) golden::fnv1a64(h, static_cast<std::uint64_t>(d));
        }
      }
    }
  }
  EXPECT_EQ(pairs, 10u * (4 + 16 + 64 + 256 + 1024 + 4096));
  EXPECT_GT(unreachable, 0u);  // the sweep covers severed pairs too
  EXPECT_EQ(h, 0x723edf45fd44a76eULL);
}

}  // namespace
}  // namespace nct
