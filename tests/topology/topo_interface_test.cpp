// Structural invariants of the pluggable Topology implementations:
// wiring symmetry, dense link indexing, deterministic BFS routing, and
// the signature (stable_hash / TopologyId) contract that keys plan
// caches and trace headers; plus the cube's DirectedLink and its
// ascending-order BFS route.
#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "cube/bits.hpp"
#include "topology/hypercube.hpp"

namespace nct::topo {
namespace {

using cube::word;

/// Every configuration the differential suite exercises.
std::vector<std::shared_ptr<const Topology>> all_topologies() {
  return {
      make_topology(TopologyId{}, 4),
      make_topology(torus_id({4, 4}), 0),
      make_topology(torus_id({2, 3, 4}), 0),
      make_topology(mesh_id({4, 4}), 0),
      make_topology(mesh_id({3, 5}), 0),
      make_topology(dragonfly_id(2, 2), 0),
      make_topology(dragonfly_id(4, 2), 0),
      make_topology(dragonfly_id(2, 3), 0),
  };
}

TEST(TopologyId, NodeAndPortCounts) {
  EXPECT_EQ(TopologyId{}.node_count(4), 16u);
  EXPECT_EQ(TopologyId{}.port_count(4), 4);
  EXPECT_EQ(torus_id({4, 4}).node_count(0), 16u);
  EXPECT_EQ(torus_id({4, 4}).port_count(0), 4);
  EXPECT_EQ(torus_id({2, 3, 4}).node_count(0), 24u);
  EXPECT_EQ(torus_id({2, 3, 4}).port_count(0), 6);
  EXPECT_EQ(mesh_id({3, 5}).node_count(0), 15u);
  EXPECT_EQ(mesh_id({3, 5}).port_count(0), 4);
  // D3(K, M): K*M groups of M routers, degree (M-1) + K.
  EXPECT_EQ(dragonfly_id(2, 2).node_count(0), 8u);
  EXPECT_EQ(dragonfly_id(2, 2).port_count(0), 3);
  EXPECT_EQ(dragonfly_id(4, 2).node_count(0), 16u);
  EXPECT_EQ(dragonfly_id(4, 2).port_count(0), 5);
  EXPECT_EQ(dragonfly_id(2, 3).node_count(0), 18u);
  EXPECT_EQ(dragonfly_id(2, 3).port_count(0), 4);
}

TEST(TopologyId, Names) {
  EXPECT_EQ(TopologyId{}.name(4), "hypercube(4)");
  EXPECT_EQ(torus_id({4, 4}).name(0), "torus(4x4)");
  EXPECT_EQ(mesh_id({3, 5}).name(0), "mesh(3x5)");
  EXPECT_EQ(dragonfly_id(2, 3).name(0), "dragonfly(K=2,M=3)");
}

TEST(TopologyId, DefaultIsCube) {
  const TopologyId id;
  EXPECT_TRUE(id.is_cube());
  EXPECT_FALSE(torus_id({2, 2}).is_cube());
  EXPECT_FALSE(mesh_id({2, 2}).is_cube());
  EXPECT_FALSE(dragonfly_id(2, 2).is_cube());
}

TEST(TopologyId, StableHashSeparatesEveryConfiguration) {
  // The signature keys plan caches: any two distinct wirings (including
  // torus-vs-mesh of the same shape, and cubes of different n) must
  // hash apart.
  std::set<std::uint64_t> seen;
  for (const auto& t : all_topologies()) EXPECT_TRUE(seen.insert(t->stable_hash()).second)
      << t->name() << " collides with an earlier topology";
  EXPECT_TRUE(seen.insert(TopologyId{}.stable_hash(5)).second);
  EXPECT_TRUE(seen.insert(torus_id({4, 2}).stable_hash(0)).second)
      << "torus(4x2) must differ from torus(2x...) shapes";
}

TEST(TopologyId, TorusAndMeshOfSameShapeHashApart) {
  EXPECT_NE(torus_id({4, 4}).stable_hash(0), mesh_id({4, 4}).stable_hash(0));
}

TEST(Topology, HypercubeMatchesFlipBitAndHistoricalLinkIndexing) {
  const auto t = make_topology(TopologyId{}, 4);
  EXPECT_EQ(t->nodes(), 16u);
  EXPECT_EQ(t->ports(), 4);
  EXPECT_EQ(t->cube_dims(), 4);
  for (word x = 0; x < t->nodes(); ++x) {
    for (int d = 0; d < 4; ++d) {
      EXPECT_EQ(t->neighbor(x, d), cube::flip_bit(x, d));
      EXPECT_EQ(t->link_index(x, d), static_cast<std::size_t>(x) * 4 + d);
      EXPECT_EQ(t->link_index(x, d), link_index(4, DirectedLink{x, d}));
      EXPECT_EQ(t->reverse_port(x, d), d);  // cube wires are dimension-symmetric
    }
  }
  EXPECT_EQ(t->link_slots(), 64u);
}

TEST(Hypercube, DirectedLinkTo) {
  EXPECT_EQ((DirectedLink{0b0101, 1}).to(), 0b0111U);
  EXPECT_EQ((DirectedLink{0b0101, 0}).to(), 0b0100U);
}

TEST(Hypercube, AscendingPathIsShortest) {
  // On the cube the BFS route complements the differing bits in
  // ascending dimension order: one of the Hamming(x,y)! minimal paths.
  const auto t = make_topology(TopologyId{}, 6);
  for (word x = 0; x < t->nodes(); x += 5) {
    for (word y = 0; y < t->nodes(); y += 7) {
      EXPECT_EQ(t->route(x, y), cube::bit_positions(x ^ y)) << x << " -> " << y;
    }
  }
}

TEST(Topology, NeighborSymmetryOnEveryTopology) {
  // Wires are bidirectional: crossing a port and then its reverse port
  // lands back at the origin, on every implementation.
  for (const auto& t : all_topologies()) {
    for (word x = 0; x < t->nodes(); ++x) {
      for (int p = 0; p < t->ports(); ++p) {
        const word y = t->neighbor(x, p);
        if (y == kNoNode) {
          EXPECT_EQ(t->reverse_port(x, p), -1) << t->name();
          continue;
        }
        ASSERT_LT(y, t->nodes()) << t->name();
        const int q = t->reverse_port(x, p);
        ASSERT_GE(q, 0) << t->name() << " node " << x << " port " << p;
        EXPECT_EQ(t->neighbor(y, q), x)
            << t->name() << ": " << x << " -p" << p << "-> " << y << " -p" << q;
      }
    }
  }
}

TEST(Topology, NoSelfLoopsAnywhere) {
  for (const auto& t : all_topologies()) {
    for (word x = 0; x < t->nodes(); ++x) {
      for (int p = 0; p < t->ports(); ++p) {
        EXPECT_NE(t->neighbor(x, p), x) << t->name() << " node " << x << " port " << p;
      }
    }
  }
}

TEST(Topology, TorusWraparoundAndPortConvention) {
  // Port 2d steps +1 along dimension d, port 2d+1 steps -1; dimension 0
  // is the fastest-varying coordinate (stride 1).
  const auto t = make_topology(torus_id({4, 4}), 0);
  EXPECT_EQ(t->neighbor(0, 0), 1u);    // +1 in dim 0 (stride 1)
  EXPECT_EQ(t->neighbor(0, 1), 3u);    // -1 wraps to coordinate 3
  EXPECT_EQ(t->neighbor(0, 2), 4u);    // +1 in dim 1 (stride 4)
  EXPECT_EQ(t->neighbor(0, 3), 12u);   // -1 wraps
  EXPECT_EQ(t->neighbor(15, 0), 12u);  // (3,3) +1 wraps dim 0
}

TEST(Topology, MeshBoundaryPortsAreUnwired) {
  const auto t = make_topology(mesh_id({4, 4}), 0);
  EXPECT_EQ(t->neighbor(0, 1), kNoNode);   // (0,0) has no -1 in dim 0
  EXPECT_EQ(t->neighbor(0, 3), kNoNode);   // ... nor -1 in dim 1
  EXPECT_EQ(t->neighbor(15, 0), kNoNode);  // (3,3) has no +1 ports
  EXPECT_EQ(t->neighbor(15, 2), kNoNode);
  EXPECT_EQ(t->neighbor(5, 0), 6u);  // interior node fully wired
  EXPECT_EQ(t->neighbor(5, 1), 4u);
  EXPECT_EQ(t->neighbor(5, 2), 9u);
  EXPECT_EQ(t->neighbor(5, 3), 1u);
}

TEST(Topology, RadixOneTorusDimensionHasNoLinks) {
  const auto t = make_topology(torus_id({1, 4}), 0);
  for (word x = 0; x < t->nodes(); ++x) {
    EXPECT_EQ(t->neighbor(x, 0), kNoNode);  // a 1-ring would self-loop
    EXPECT_EQ(t->neighbor(x, 1), kNoNode);
  }
  // The radix-4 dimension still forms a ring.
  EXPECT_EQ(t->distance(0, 2), 2);
  EXPECT_EQ(t->diameter(), 2);
}

TEST(Topology, RadixTwoTorusParallelLinksStaySymmetric) {
  // Radix 2: +1 and -1 reach the same peer over two parallel wires;
  // reverse_port must still pair each wire with a wire back.
  const auto t = make_topology(torus_id({2, 2}), 0);
  for (word x = 0; x < t->nodes(); ++x) {
    for (int p = 0; p < t->ports(); ++p) {
      const word y = t->neighbor(x, p);
      ASSERT_NE(y, kNoNode);
      const int q = t->reverse_port(x, p);
      ASSERT_GE(q, 0);
      EXPECT_EQ(t->neighbor(y, q), x);
    }
  }
}

TEST(Topology, DragonflyLocalPortsFormCompleteGraph) {
  const auto t = make_topology(dragonfly_id(2, 3), 0);  // M = 3: 2 local ports
  // Group g's routers {3g, 3g+1, 3g+2} are pairwise adjacent.
  for (word g = 0; g < 6; ++g) {
    const word base = g * 3;
    for (word r = 0; r < 3; ++r) {
      std::set<word> peers;
      for (int p = 0; p < 2; ++p) peers.insert(t->neighbor(base + r, p));
      std::set<word> expect;
      for (word s = 0; s < 3; ++s)
        if (s != r) expect.insert(base + s);
      EXPECT_EQ(peers, expect) << "group " << g << " router " << r;
    }
  }
}

TEST(Topology, DragonflyGlobalWiringIsTheSwap) {
  // Global port M-1+k of (g, r) reaches group k*M + r, router g mod M —
  // except the diagonal (peer group == own group), which is unwired.
  const int K = 4, M = 2;
  const auto t = make_topology(dragonfly_id(K, M), 0);
  for (word g = 0; g < static_cast<word>(K * M); ++g) {
    for (word r = 0; r < static_cast<word>(M); ++r) {
      const word x = g * M + r;
      for (int k = 0; k < K; ++k) {
        const word peer_group = static_cast<word>(k) * M + r;
        const word y = t->neighbor(x, (M - 1) + k);
        if (peer_group == g) {
          EXPECT_EQ(y, kNoNode) << "diagonal link must be absent";
        } else {
          EXPECT_EQ(y, peer_group * M + (g % M));
        }
      }
    }
  }
}

TEST(Topology, RouteIsAValidShortestPath) {
  for (const auto& t : all_topologies()) {
    for (word s = 0; s < t->nodes(); ++s) {
      for (word d = 0; d < t->nodes(); ++d) {
        const auto route = t->route(s, d);
        EXPECT_EQ(static_cast<int>(route.size()), t->distance(s, d)) << t->name();
        word at = s;
        for (const int p : route) {
          at = t->neighbor(at, p);
          ASSERT_NE(at, kNoNode) << t->name();
        }
        EXPECT_EQ(at, d) << t->name() << " route " << s << " -> " << d;
      }
    }
  }
}

TEST(Topology, RouteIsDeterministic) {
  for (const auto& t : all_topologies()) {
    for (word s = 0; s < t->nodes(); s += 3) {
      for (word d = 0; d < t->nodes(); d += 2) {
        EXPECT_EQ(t->route(s, d), t->route(s, d)) << t->name();
      }
    }
  }
}

TEST(Topology, DiameterValues) {
  EXPECT_EQ(make_topology(TopologyId{}, 4)->diameter(), 4);
  EXPECT_EQ(make_topology(torus_id({4, 4}), 0)->diameter(), 4);    // 2 + 2
  EXPECT_EQ(make_topology(mesh_id({4, 4}), 0)->diameter(), 6);     // 3 + 3
  EXPECT_EQ(make_topology(torus_id({2, 3, 4}), 0)->diameter(), 4);  // 1+1+2
  EXPECT_EQ(make_topology(mesh_id({3, 5}), 0)->diameter(), 6);     // 2 + 4
  // Swapped Dragonfly: local, global, local.
  EXPECT_EQ(make_topology(dragonfly_id(4, 2), 0)->diameter(), 3);
  EXPECT_EQ(make_topology(dragonfly_id(2, 3), 0)->diameter(), 3);
}

TEST(Topology, LinkSlotsCoverEveryDirectedLink) {
  for (const auto& t : all_topologies()) {
    std::set<std::size_t> seen;
    for (word x = 0; x < t->nodes(); ++x) {
      for (int p = 0; p < t->ports(); ++p) {
        const std::size_t li = t->link_index(x, p);
        EXPECT_LT(li, t->link_slots()) << t->name();
        EXPECT_TRUE(seen.insert(li).second) << t->name() << " duplicate link index";
      }
    }
  }
}

TEST(Topology, MakeTopologyValidatesShapes) {
  EXPECT_THROW(make_topology(torus_id({}), 0), std::invalid_argument);
  EXPECT_THROW(make_topology(torus_id({0, 4}), 0), std::invalid_argument);
  EXPECT_THROW(make_topology(mesh_id({4, -1}), 0), std::invalid_argument);
  EXPECT_THROW(make_topology(dragonfly_id(0, 2), 0), std::invalid_argument);
  EXPECT_THROW(make_topology(dragonfly_id(2, 0), 0), std::invalid_argument);
  TopologyId bad = dragonfly_id(2, 2);
  bad.shape.push_back(3);  // dragonfly shape must be exactly {K, M}
  EXPECT_THROW(make_topology(bad, 0), std::invalid_argument);
}

TEST(Topology, RouteToSelfIsEmpty) {
  const auto t = make_topology(torus_id({2, 2}), 0);
  EXPECT_TRUE(t->route(1, 1).empty());
  EXPECT_EQ(t->distance(1, 1), 0);
}

TEST(Topology, RouteRejectsNodesOutsideTheTopology) {
  const auto t = make_topology(torus_id({2, 2}), 0);
  EXPECT_THROW(t->route(0, 99), std::invalid_argument);
  EXPECT_THROW(t->route(99, 0), std::invalid_argument);
}

}  // namespace
}  // namespace nct::topo
