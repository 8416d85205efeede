// Fault injection for ensemble interconnects.
//
// The paper's Theorem 2 shows the MPT algorithm routes each node's block
// over 2H(x) pairwise edge-disjoint paths — exactly the redundancy a
// machine with failed links needs.  This library makes that claim
// testable: a FaultSpec describes failed or degraded links and nodes
// (permanent, or transient over a simulated-time window); a FaultModel
// compiles the spec against a topo::Topology (the Boolean n-cube is
// topo::HypercubeTopology, one instance among torus, mesh and Swapped
// Dragonfly) into dense per-directed-link tables the simulation engine
// consults on every hop, and into the plan-time queries the
// failure-aware planners use to select surviving paths.
//
// Semantics:
//  * a *transient* link fault (finite window) delays traffic: a hop that
//    attempts the link inside a down window waits for recovery and is
//    re-injected (one retry per window crossed), subject to a
//    RetryPolicy; data is never lost or corrupted;
//  * a *permanent* link fault (window open to kForever) can never carry
//    traffic again — planners must route around it, and a program whose
//    route crosses one aborts with FaultError;
//  * a *degraded* link multiplies its hop (or serialisation) time by a
//    constant factor but stays functional;
//  * a node fault takes down every directed link incident to the node
//    (2n on the n-cube) for the window (the node itself neither sends,
//    receives, nor forwards while down).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "cube/bits.hpp"
#include "topology/hypercube.hpp"
#include "topology/topology.hpp"

namespace nct::fault {

using cube::word;

/// Open-ended "until" for permanent faults.
inline constexpr double kForever = std::numeric_limits<double>::infinity();

/// Half-open simulated-time interval [from, until) during which a fault
/// is active.  Default-constructed: active forever (a permanent fault).
struct Window {
  double from = 0.0;
  double until = kForever;

  bool permanent() const noexcept { return until == kForever; }
  bool contains(double t) const noexcept { return t >= from && t < until; }

  friend bool operator==(const Window&, const Window&) = default;
};

struct LinkFault {
  topo::DirectedLink link;
  Window when{};
  /// Cube links are bidirectional wires (Section 2): a cut link usually
  /// fails both directions.  Set false to fail only `link` as directed.
  bool both_directions = true;
};

struct NodeFault {
  word node = 0;
  Window when{};
};

struct LinkDegrade {
  topo::DirectedLink link;
  double factor = 1.0;  ///< hop-time multiplier, >= 1.
  bool both_directions = true;
};

/// Declarative fault description, independent of any machine size until
/// compiled into a FaultModel.  Builder methods return *this for
/// chaining: FaultSpec{}.fail_link(3, 1).degrade_link(0, 2, 4.0).
struct FaultSpec {
  std::vector<LinkFault> links;
  std::vector<NodeFault> nodes;
  std::vector<LinkDegrade> degraded;

  bool empty() const noexcept { return links.empty() && nodes.empty() && degraded.empty(); }

  FaultSpec& fail_link(word from, int dim, Window when = {}, bool both_directions = true) {
    links.push_back(LinkFault{{from, dim}, when, both_directions});
    return *this;
  }
  FaultSpec& fail_node(word node, Window when = {}) {
    nodes.push_back(NodeFault{node, when});
    return *this;
  }
  FaultSpec& degrade_link(word from, int dim, double factor, bool both_directions = true) {
    degraded.push_back(LinkDegrade{{from, dim}, factor, both_directions});
    return *this;
  }
};

/// Raised when a message cannot be delivered: its route crosses a
/// permanently-failed link, or its retry budget is exhausted.
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How the executor reacts to a hop blocked by a transient outage.
struct RetryPolicy {
  /// Re-injection overhead charged after each recovery before the hop
  /// restarts (models software retry cost; 0 = retry instantly).
  double retry_penalty = 0.0;
  /// Abort the message after this many retries on one hop.
  int max_retries = 16;
  /// Abort if one hop stays blocked longer than this (simulated time).
  double timeout = kForever;
};

/// A FaultSpec compiled against a topology: O(1) per-link queries backed
/// by dense tables (sorted, merged outage windows and degrade factors per
/// directed link, indexed by Topology::link_index).  The n-cube is one
/// such topology (topo::HypercubeTopology, where a link's port is its
/// dimension).  Immutable after construction; safe to share across
/// concurrent engine runs.
class FaultModel {
 public:
  /// A healthy machine of no particular topology (every query reports
  /// the link up, factor 1).
  FaultModel() = default;

  /// Compile the spec against `t`: link faults name (node, port) pairs
  /// of `t`, node faults take down every wired port of the node in both
  /// directions.  Throws std::invalid_argument on out-of-range
  /// nodes/ports, unwired ports, or degrade factors < 1.
  FaultModel(std::shared_ptr<const topo::Topology> t, const FaultSpec& spec);

  /// The same against the n-cube, make_topology(TopologyId{}, n).
  FaultModel(int n, const FaultSpec& spec);

  /// The interconnect the model was compiled for; null for the default
  /// healthy model.  Every model with faults holds one.
  const std::shared_ptr<const topo::Topology>& topology() const noexcept { return topo_; }
  bool empty() const noexcept { return !any_faults_; }

  /// Hop-time multiplier of directed link `li` (>= 1).
  double degrade(std::size_t li) const noexcept {
    return li < degrade_.size() ? degrade_[li] : 1.0;
  }

  /// Earliest time >= t at which the link is up: t itself when the link
  /// is up at t, the covering window's end when down, kForever when the
  /// covering window is permanent.
  double up_at(std::size_t li, double t) const noexcept;

  /// True if the link has a permanent outage window (it will eventually
  /// refuse traffic forever).
  bool permanently_down(std::size_t li) const noexcept;

  /// Sorted, merged outage windows of the link (empty when healthy).
  const std::vector<Window>& windows(std::size_t li) const noexcept;

  /// True if the spec names this link at all (any outage window or a
  /// degrade factor != 1).  The sharded engine routes events on touched
  /// links to its serial spine, so the fault gate stays single-writer.
  bool touches(std::size_t li) const noexcept {
    return (li < degrade_.size() && degrade_[li] != 1.0) || !windows(li).empty();
  }

  /// True if any link traversed by `route` starting at `src` is
  /// permanently down.
  bool route_blocked(word src, std::span<const int> route) const noexcept;

 private:
  bool any_faults_ = false;
  std::shared_ptr<const topo::Topology> topo_;  ///< null only when default-built.
  std::vector<double> degrade_;                 ///< per-link factor, or empty.
  std::vector<std::vector<Window>> windows_;    ///< per-link outages, or empty.
};

/// Shortest route from src to dst on `t` crossing no permanently-down
/// link of `model`: Topology::shortest_route (BFS, ports ascending, first
/// visit wins) with those links filtered out, so the detour is
/// deterministic.  nullopt when dst is unreachable; empty route when
/// src == dst.
std::optional<std::vector<int>> route_around(const topo::Topology& t, word src, word dst,
                                             const FaultModel& model);

}  // namespace nct::fault
