// Pluggable interconnect topologies.
//
// The paper's planners are Boolean-cube-specific, but the simulator,
// fault model, observability and tuning layers only ever need four
// things from the interconnect: how many nodes exist, how many ports
// each node drives, which node sits across a given port, and a dense
// index for every directed link.  `Topology` captures exactly that
// contract; `TopologyId` is the cheap comparable/serialisable value that
// names a topology inside `MachineParams`, `sim::Program`, tune keys and
// trace headers.
//
// Invariants every implementation must honour:
//   * nodes are 0..nodes()-1; ports are 0..ports()-1;
//   * neighbor(x, p) returns the node across port p, or kNoNode when the
//     port is unwired (mesh boundaries, radix-1 rings);
//   * link_index(from, port) = from * ports() + port — the same dense
//     directed-link indexing the engine, fault tables and traces always
//     used for the cube (where ports() == n and neighbor == flip_bit, so
//     every existing hypercube artifact is numerically unchanged);
//   * route(src, dst) is the deterministic BFS shortest path expanding
//     ports in ascending order with first-visit-wins, so plans built on
//     any topology are reproducible across runs and hosts; the
//     fault-avoiding fault::route_around is the same search
//     (shortest_route) with permanently-down links filtered out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cube/bits.hpp"

namespace nct::topo {

using cube::word;

/// "No node across this port" — unwired mesh boundary / absent link.
inline constexpr word kNoNode = ~word{0};

/// Which interconnect family a machine/program targets.  Persisted in
/// tune keys and trace files: append-only, never renumber.
enum class TopoKind : std::uint8_t {
  hypercube = 0,  ///< Boolean n-cube; shape empty, dims from machine n.
  torus = 1,      ///< k-ary n-torus; shape = radix per dimension.
  mesh = 2,       ///< torus without wraparound links.
  dragonfly = 3,  ///< Swapped Dragonfly D3(K, M); shape = {K, M}.
};

/// Value identity of a topology: cheap to copy, compare and serialise.
/// The hypercube id has an empty shape — its size comes from the
/// machine/program dimension n, which keeps every existing aggregate,
/// default-comparison and cache-key behaviour for cube runs unchanged.
struct TopologyId {
  TopoKind kind = TopoKind::hypercube;
  std::vector<int> shape;

  bool is_cube() const noexcept { return kind == TopoKind::hypercube; }

  /// Node count given the machine/program cube dimension `n` (ignored
  /// for non-cube kinds, whose size lives in `shape`).
  word node_count(int n) const;

  /// Ports per node (the directed-link stride).  Hypercube: n.
  int port_count(int n) const;

  /// Human-readable name, e.g. "hypercube(4)", "torus(4x4)",
  /// "mesh(3x5)", "dragonfly(K=2,M=3)".
  std::string name(int n) const;

  /// FNV-1a signature over (kind, n-if-cube, shape): the topology
  /// signature threaded through plan caches and trace headers.
  std::uint64_t stable_hash(int n) const noexcept;

  friend bool operator==(const TopologyId&, const TopologyId&) = default;
};

/// k-ary n-torus over the given per-dimension radices.
TopologyId torus_id(std::vector<int> shape);

/// Mesh (torus without wraparound) over the given radices.
TopologyId mesh_id(std::vector<int> shape);

/// Swapped Dragonfly D3(K, M): K*M groups of M fully-connected routers,
/// K global ports per router (Draper 2022).  K*M*M nodes of degree
/// (M-1) + K.
TopologyId dragonfly_id(int K, int M);

class Topology {
 public:
  virtual ~Topology() = default;

  const TopologyId& id() const noexcept { return id_; }
  word nodes() const noexcept { return nodes_; }
  int ports() const noexcept { return ports_; }
  /// Cube dimension for hypercubes; 0 for every other kind.
  int cube_dims() const noexcept { return n_; }

  /// Dense directed-link index; stride == ports() (== n on the cube).
  std::size_t link_index(word from, int port) const noexcept {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(ports_) +
           static_cast<std::size_t>(port);
  }
  /// Size for per-directed-link tables (>= 1 slot per node so the 0-d
  /// cube keeps its historical non-empty arrays).
  std::size_t link_slots() const noexcept {
    return static_cast<std::size_t>(nodes_) * static_cast<std::size_t>(ports_ > 0 ? ports_ : 1);
  }

  /// Node across port p of x, or kNoNode when the port is unwired.  On
  /// a cube of n >= 1 dimensions it is flip_bit(x, port) inline, with no
  /// virtual call (compile makes one call per hop).
  word neighbor(word x, int port) const noexcept {
    return n_ > 0 ? cube::flip_bit(x, port) : neighbor_of(x, port);
  }

  /// Port q of `to = neighbor(from, port)` with neighbor(to, q) == from:
  /// the reverse direction of a physical wire.  Returns -1 for unwired
  /// ports.
  int reverse_port(word from, int port) const noexcept;

  /// The one route search: BFS from src over the wired links whose
  /// link_index `usable` accepts, ports expanded in ascending order,
  /// first visit wins, so the shortest route it returns is
  /// deterministic.  Empty for src == dst; nullopt when dst is
  /// unreachable or either node is outside the topology.
  std::optional<std::vector<int>> shortest_route(
      word src, word dst, const std::function<bool(std::size_t)>& usable) const;

  /// shortest_route over every link.  Throws std::invalid_argument for
  /// nodes outside the topology and std::runtime_error if dst is
  /// unreachable.
  std::vector<int> route(word src, word dst) const;

  /// Hop count of route(src, dst); -1 if unreachable.
  int distance(word src, word dst) const;

  /// Max finite pairwise distance (all-pairs BFS; O(V*E), fine at the
  /// ensemble sizes we simulate).  Throws if the topology is
  /// disconnected.
  int diameter() const;

  std::string name() const { return id_.name(n_); }
  std::uint64_t stable_hash() const noexcept { return id_.stable_hash(n_); }

 protected:
  Topology(TopologyId id, word nodes, int ports, int n)
      : id_(std::move(id)), nodes_(nodes), ports_(ports), n_(n) {}

  /// neighbor() of each kind; the cube's is reached only at n == 0.
  virtual word neighbor_of(word x, int port) const noexcept = 0;

 private:
  TopologyId id_;
  word nodes_;
  int ports_;
  int n_;
};

/// Boolean n-cube (Definition 5): ports() == n, neighbor == flip_bit,
/// link_index == topo::link_index(n, {from, dim}).  Throws
/// std::invalid_argument unless 0 <= n <= 62.
class HypercubeTopology final : public Topology {
 public:
  explicit HypercubeTopology(int n);

 private:
  word neighbor_of(word x, int port) const noexcept override {
    return cube::flip_bit(x, port);
  }
};

/// k-ary n-torus / mesh.  Port 2d steps +1 along dimension d, port
/// 2d + 1 steps -1; a mesh leaves boundary ports unwired and a radix-1
/// dimension has no links at all.
class TorusTopology final : public Topology {
 public:
  TorusTopology(std::vector<int> shape, bool wrap);

 private:
  word neighbor_of(word x, int port) const noexcept override;

  std::vector<int> shape_;
  std::vector<word> stride_;
  bool wrap_;
};

/// Swapped Dragonfly D3(K, M): K*M groups x M routers; node = g*M + r.
/// Local ports 0..M-2 form the intra-group complete graph; global port
/// M-1+k (k in [0, K)) wires (g, r) to group k*M + r, router g mod M.
class SwappedDragonflyTopology final : public Topology {
 public:
  SwappedDragonflyTopology(int K, int M);

 private:
  word neighbor_of(word x, int port) const noexcept override;

  int K_;
  int M_;
};

/// Instantiate the topology named by `id` (n = machine/program cube
/// dimension, used only by the hypercube kind).  Validates the shape and
/// throws std::invalid_argument on nonsense (empty torus shape, radix
/// < 1, dragonfly K < 1 or M < 1).
std::shared_ptr<const Topology> make_topology(const TopologyId& id, int n);

}  // namespace nct::topo
