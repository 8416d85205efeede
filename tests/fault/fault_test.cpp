// FaultSpec / FaultModel semantics: window validation and merging,
// per-directed-link queries, node faults, degrade factors, route
// queries, the BFS detour, and the runtime fault injector's refusal
// countdowns.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/program.hpp"
#include "topology/hypercube.hpp"
#include "topology/topology.hpp"

namespace nct::fault {
namespace {

using cube::word;

std::size_t li(int n, word from, int dim) { return topo::link_index(n, {from, dim}); }

TEST(FaultSpec, BuildersChainAndEmptyDetection) {
  EXPECT_TRUE(FaultSpec{}.empty());
  const FaultSpec spec =
      FaultSpec{}.fail_link(3, 1).fail_node(0, {1.0, 2.0}).degrade_link(1, 0, 4.0);
  EXPECT_FALSE(spec.empty());
  EXPECT_EQ(spec.links.size(), 1u);
  EXPECT_EQ(spec.nodes.size(), 1u);
  EXPECT_EQ(spec.degraded.size(), 1u);
  EXPECT_TRUE(spec.links[0].when.permanent());
  EXPECT_FALSE(spec.nodes[0].when.permanent());
}

TEST(FaultModel, EmptyModelReportsEverythingHealthy) {
  const FaultModel healthy;
  EXPECT_TRUE(healthy.empty());
  EXPECT_EQ(healthy.up_at(0, 3.5), 3.5);
  EXPECT_EQ(healthy.degrade(0), 1.0);
  EXPECT_FALSE(healthy.permanently_down(0));
  EXPECT_FALSE(healthy.route_blocked(0, {{0, 1, 2}}));

  const FaultModel compiled(3, FaultSpec{});
  EXPECT_TRUE(compiled.empty());
}

TEST(FaultModel, PermanentLinkFaultBothDirections) {
  const int n = 3;
  const FaultModel fm(n, FaultSpec{}.fail_link(0, 1));
  EXPECT_FALSE(fm.empty());
  EXPECT_TRUE(fm.permanently_down(li(n, 0, 1)));
  EXPECT_TRUE(fm.permanently_down(li(n, 2, 1)));  // reverse direction of the wire
  EXPECT_EQ(fm.up_at(li(n, 0, 1), 7.0), kForever);
  EXPECT_FALSE(fm.permanently_down(li(n, 0, 0)));
}

TEST(FaultModel, DirectedFaultLeavesReverseDirectionUp) {
  const int n = 3;
  const FaultModel fm(n, FaultSpec{}.fail_link(0, 1, {}, /*both_directions=*/false));
  EXPECT_TRUE(fm.permanently_down(li(n, 0, 1)));
  EXPECT_FALSE(fm.permanently_down(li(n, 2, 1)));
}

TEST(FaultModel, TransientWindowSemantics) {
  const int n = 2;
  const FaultModel fm(n, FaultSpec{}.fail_link(0, 0, {2.0, 5.0}));
  const std::size_t l = li(n, 0, 0);
  EXPECT_FALSE(fm.permanently_down(l));
  EXPECT_EQ(fm.up_at(l, 1.0), 1.0);   // before the window
  EXPECT_EQ(fm.up_at(l, 2.0), 5.0);   // window is half-open [from, until)
  EXPECT_EQ(fm.up_at(l, 4.9), 5.0);
  EXPECT_EQ(fm.up_at(l, 5.0), 5.0);   // recovered exactly at `until`
  EXPECT_EQ(fm.up_at(l, 9.0), 9.0);
}

TEST(FaultModel, OverlappingWindowsMergeAndSort) {
  const int n = 2;
  const FaultModel fm(
      n, FaultSpec{}.fail_link(0, 0, {4.0, 6.0}).fail_link(0, 0, {1.0, 3.0}).fail_link(
             0, 0, {2.0, 4.5}));
  const auto& ws = fm.windows(li(n, 0, 0));
  ASSERT_EQ(ws.size(), 1u);  // [1,3) + [2,4.5) + [4,6) chain into [1,6)
  EXPECT_EQ(ws[0].from, 1.0);
  EXPECT_EQ(ws[0].until, 6.0);
  EXPECT_EQ(fm.up_at(li(n, 0, 0), 2.0), 6.0);
}

TEST(FaultModel, DisjointWindowsStaySeparate) {
  const int n = 2;
  const FaultModel fm(n,
                      FaultSpec{}.fail_link(0, 0, {5.0, 6.0}).fail_link(0, 0, {1.0, 2.0}));
  const auto& ws = fm.windows(li(n, 0, 0));
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].from, 1.0);
  EXPECT_EQ(ws[1].from, 5.0);
  EXPECT_EQ(fm.up_at(li(n, 0, 0), 3.0), 3.0);  // up in the gap
}

TEST(FaultModel, NodeFaultTakesDownAllIncidentLinks) {
  const int n = 3;
  const word x = 5;
  const FaultModel fm(n, FaultSpec{}.fail_node(x));
  for (int d = 0; d < n; ++d) {
    EXPECT_TRUE(fm.permanently_down(li(n, x, d))) << d;
    EXPECT_TRUE(fm.permanently_down(li(n, cube::flip_bit(x, d), d))) << d;
  }
  EXPECT_FALSE(fm.permanently_down(li(n, 0, 0)));
}

TEST(FaultModel, DegradeFactorsTakeTheMax) {
  const int n = 2;
  const FaultModel fm(n, FaultSpec{}.degrade_link(0, 0, 2.0).degrade_link(0, 0, 3.0));
  EXPECT_EQ(fm.degrade(li(n, 0, 0)), 3.0);
  EXPECT_EQ(fm.degrade(li(n, 1, 0)), 3.0);  // both directions by default
  EXPECT_EQ(fm.degrade(li(n, 0, 1)), 1.0);
}

TEST(FaultModel, ConstructorValidatesSpecs) {
  EXPECT_THROW(FaultModel(2, FaultSpec{}.fail_link(4, 0)), std::invalid_argument);
  EXPECT_THROW(FaultModel(2, FaultSpec{}.fail_link(0, 2)), std::invalid_argument);
  EXPECT_THROW(FaultModel(2, FaultSpec{}.fail_node(7)), std::invalid_argument);
  EXPECT_THROW(FaultModel(2, FaultSpec{}.fail_link(0, 0, {3.0, 2.0})),
               std::invalid_argument);
  EXPECT_THROW(FaultModel(2, FaultSpec{}.fail_link(0, 0, {-1.0, 2.0})),
               std::invalid_argument);
  EXPECT_THROW(FaultModel(2, FaultSpec{}.degrade_link(0, 0, 0.5)), std::invalid_argument);
  EXPECT_THROW(FaultModel(-1, FaultSpec{}), std::invalid_argument);
}

TEST(FaultModel, RouteBlockedChecksEveryHopFromTheSource) {
  const int n = 3;
  // Cut the wire 2 -- 6 (dim 2 out of node 2).
  const FaultModel fm(n, FaultSpec{}.fail_link(2, 2));
  EXPECT_TRUE(fm.route_blocked(0, {{1, 2}}));   // 0 ->1 2 ->2 6 crosses it
  EXPECT_FALSE(fm.route_blocked(0, {{2, 1}}));  // 0 ->2 4 ->1 6 avoids it
  EXPECT_FALSE(fm.route_blocked(0, {}));
}

TEST(RouteAround, HealthyCubeYieldsAscendingShortestRoute) {
  const FaultModel healthy;
  const topo::HypercubeTopology cube(3);
  const auto r = route_around(cube, 0, 6, healthy);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (std::vector<int>{1, 2}));
  EXPECT_EQ(route_around(cube, 5, 5, healthy), std::vector<int>{});
}

TEST(RouteAround, DetoursAroundACutAtTwoExtraHops) {
  const int n = 3;
  const FaultModel fm(n, FaultSpec{}.fail_link(0, 0));
  const auto r = route_around(*fm.topology(), 0, 1, fm);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 3u);  // Hamming distance 1, shortest surviving route 3
  word at = 0;
  for (const int d : *r) {
    EXPECT_FALSE(fm.permanently_down(topo::link_index(n, {at, d})));
    at = cube::flip_bit(at, d);
  }
  EXPECT_EQ(at, 1u);
}

TEST(RouteAround, DisconnectedDestinationReturnsNullopt) {
  // In a 1-cube the single wire is the only connection.
  const FaultModel fm(1, FaultSpec{}.fail_link(0, 0));
  EXPECT_FALSE(route_around(*fm.topology(), 0, 1, fm).has_value());

  // An isolated (fully node-faulted) destination in a 3-cube.
  const FaultModel iso(3, FaultSpec{}.fail_node(7));
  EXPECT_FALSE(route_around(*iso.topology(), 0, 7, iso).has_value());
  EXPECT_TRUE(route_around(*iso.topology(), 0, 6, iso).has_value());
}

TEST(RouteAround, TransientFaultsDoNotForceDetours) {
  // Only permanent faults block planning; transient ones are the
  // engine's retry problem.
  const FaultModel fm(3, FaultSpec{}.fail_link(0, 0, {0.0, 100.0}));
  const auto r = route_around(*fm.topology(), 0, 1, fm);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::vector<int>{0});
}

TEST(FaultInjector, RefusesExactlyTheConfiguredCountPerWindow) {
  const int n = 2;
  runtime::FaultInjector inj(n, FaultSpec{}.fail_link(0, 0, {1.0, 2.0}, false), 3);
  const std::size_t l = li(n, 0, 0);
  EXPECT_FALSE(inj.try_acquire(l));
  EXPECT_FALSE(inj.try_acquire(l));
  EXPECT_FALSE(inj.try_acquire(l));
  EXPECT_TRUE(inj.try_acquire(l));  // countdown exhausted: link recovered
  EXPECT_TRUE(inj.try_acquire(l));
  EXPECT_EQ(inj.refusals(), 3u);
  EXPECT_EQ(inj.give_ups(), 0u);
  // Untouched links never refuse.
  EXPECT_TRUE(inj.try_acquire(li(n, 1, 1)));
}

TEST(FaultInjector, NodeFaultCoversAllIncidentLinksAndWindowsAccumulate) {
  const int n = 2;
  runtime::FaultInjector inj(
      n, FaultSpec{}.fail_node(0, {0.0, 1.0}).fail_link(0, 1, {2.0, 3.0}, false), 1);
  // Link (0, dim 1): one refusal from the node fault + one from the link
  // fault.
  EXPECT_FALSE(inj.try_acquire(li(n, 0, 1)));
  EXPECT_FALSE(inj.try_acquire(li(n, 0, 1)));
  EXPECT_TRUE(inj.try_acquire(li(n, 0, 1)));
  // Incident reverse direction: node fault only.
  EXPECT_FALSE(inj.try_acquire(li(n, 2, 1)));
  EXPECT_TRUE(inj.try_acquire(li(n, 2, 1)));
}

TEST(FaultInjector, ThreadedExecutorRetriesThroughTransientFaults) {
  // One element 0 -> 1 across the only wire of a 1-cube, with the wire
  // refusing the first few attempts: the sender must back off, retry,
  // and still deliver exactly the healthy result.
  sim::Program prog;
  prog.n = 1;
  prog.local_slots = 1;
  sim::Phase ph;
  ph.sends.add(0, {0}, {0}, {0});
  prog.phases.push_back(ph);

  sim::Memory init(2, std::vector<word>(1, sim::kEmptySlot));
  init[0][0] = 42;

  runtime::FaultInjector inj(1, FaultSpec{}.fail_link(0, 0, {0.0, 1.0}, false), 2);
  const auto mem = runtime::execute_program_threads(prog, init, inj);
  EXPECT_EQ(inj.refusals(), 2u);
  EXPECT_EQ(inj.give_ups(), 0u);
  EXPECT_EQ(mem[1][0], 42u);
  EXPECT_EQ(mem[0][0], sim::kEmptySlot);

  // A zero retry budget gives up (but still delivers, then reports).
  runtime::FaultInjector stubborn(1, FaultSpec{}.fail_link(0, 0, {0.0, 1.0}, false), 2);
  RetryPolicy strict;
  strict.max_retries = 0;
  EXPECT_THROW(runtime::execute_program_threads(prog, init, stubborn, strict), FaultError);
  EXPECT_EQ(stubborn.give_ups(), 1u);
}

TEST(FaultInjector, RejectsPermanentFaultsAndBadLinks) {
  EXPECT_THROW(runtime::FaultInjector(2, FaultSpec{}.fail_link(0, 0)),
               std::invalid_argument);
  EXPECT_THROW(runtime::FaultInjector(2, FaultSpec{}.fail_node(1)), std::invalid_argument);
  EXPECT_THROW(runtime::FaultInjector(2, FaultSpec{}.fail_link(9, 0, {0.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW(runtime::FaultInjector(2, FaultSpec{}.fail_link(0, 0, {0.0, 1.0}), -1),
               std::invalid_argument);
}

}  // namespace
}  // namespace nct::fault
