#include "topology/topology.hpp"

#include <algorithm>
#include <cstddef>
#include <queue>
#include <stdexcept>

namespace nct::topo {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

word checked_product(const std::vector<int>& shape) {
  word total = 1;
  for (const int r : shape) {
    if (r < 1) throw std::invalid_argument("topology: radix must be >= 1");
    total *= static_cast<word>(r);
  }
  return total;
}

/// 2^n, validated before the shift so a bad n never shifts out of range.
word cube_nodes(int n) {
  if (n < 0 || n > 62) throw std::invalid_argument("hypercube: n out of range");
  return word{1} << n;
}

}  // namespace

word TopologyId::node_count(int n) const {
  switch (kind) {
    case TopoKind::hypercube:
      return word{1} << n;
    case TopoKind::torus:
    case TopoKind::mesh: {
      word total = 1;
      for (const int r : shape) total *= static_cast<word>(r < 1 ? 1 : r);
      return total;
    }
    case TopoKind::dragonfly: {
      const word K = shape.size() > 0 ? static_cast<word>(shape[0]) : 1;
      const word M = shape.size() > 1 ? static_cast<word>(shape[1]) : 1;
      return K * M * M;
    }
  }
  return 1;
}

int TopologyId::port_count(int n) const {
  switch (kind) {
    case TopoKind::hypercube:
      return n;
    case TopoKind::torus:
    case TopoKind::mesh:
      return 2 * static_cast<int>(shape.size());
    case TopoKind::dragonfly: {
      const int K = shape.size() > 0 ? shape[0] : 1;
      const int M = shape.size() > 1 ? shape[1] : 1;
      return (M - 1) + K;
    }
  }
  return 0;
}

std::string TopologyId::name(int n) const {
  switch (kind) {
    case TopoKind::hypercube:
      return "hypercube(" + std::to_string(n) + ")";
    case TopoKind::torus:
    case TopoKind::mesh: {
      std::string s = kind == TopoKind::torus ? "torus(" : "mesh(";
      for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i > 0) s += "x";
        s += std::to_string(shape[i]);
      }
      return s + ")";
    }
    case TopoKind::dragonfly:
      return "dragonfly(K=" + std::to_string(shape.size() > 0 ? shape[0] : 0) +
             ",M=" + std::to_string(shape.size() > 1 ? shape[1] : 0) + ")";
  }
  return "unknown";
}

std::uint64_t TopologyId::stable_hash(int n) const noexcept {
  std::uint64_t h = kFnvOffset;
  fnv(h, static_cast<std::uint64_t>(kind));
  fnv(h, is_cube() ? static_cast<std::uint64_t>(n) : 0);
  fnv(h, static_cast<std::uint64_t>(shape.size()));
  for (const int r : shape) fnv(h, static_cast<std::uint64_t>(r));
  return h;
}

TopologyId torus_id(std::vector<int> shape) {
  return {TopoKind::torus, std::move(shape)};
}

TopologyId mesh_id(std::vector<int> shape) {
  return {TopoKind::mesh, std::move(shape)};
}

TopologyId dragonfly_id(int K, int M) {
  return {TopoKind::dragonfly, {K, M}};
}

int Topology::reverse_port(word from, int port) const noexcept {
  const word to = neighbor(from, port);
  if (to == kNoNode) return -1;
  for (int q = 0; q < ports(); ++q) {
    if (neighbor(to, q) == from) return q;
  }
  return -1;
}

std::optional<std::vector<int>> Topology::shortest_route(
    word src, word dst, const std::function<bool(std::size_t)>& usable) const {
  if (src >= nodes() || dst >= nodes()) return std::nullopt;
  if (src == dst) return std::vector<int>{};
  const std::size_t nn = static_cast<std::size_t>(nodes());
  std::vector<int> via(nn, -1);           // port used to first reach each node.
  std::vector<word> parent(nn, kNoNode);  // node we reached it from.
  std::queue<word> frontier;
  via[static_cast<std::size_t>(src)] = ports();  // origin sentinel.
  frontier.push(src);
  while (!frontier.empty()) {
    const word at = frontier.front();
    frontier.pop();
    for (int p = 0; p < ports(); ++p) {
      const word next = neighbor(at, p);
      if (next == kNoNode || via[static_cast<std::size_t>(next)] >= 0) continue;
      if (!usable(link_index(at, p))) continue;
      via[static_cast<std::size_t>(next)] = p;
      parent[static_cast<std::size_t>(next)] = at;
      if (next == dst) {
        std::vector<int> path;
        word cur = dst;
        while (cur != src) {
          path.push_back(via[static_cast<std::size_t>(cur)]);
          cur = parent[static_cast<std::size_t>(cur)];
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push(next);
    }
  }
  return std::nullopt;
}

std::vector<int> Topology::route(word src, word dst) const {
  if (src >= nodes() || dst >= nodes())
    throw std::invalid_argument("topology route: node outside the topology");
  auto path = shortest_route(src, dst, [](std::size_t) { return true; });
  if (!path)
    throw std::runtime_error("topology route: " + std::to_string(dst) +
                             " unreachable from " + std::to_string(src) + " on " + name());
  return std::move(*path);
}

int Topology::distance(word src, word dst) const {
  if (src == dst) return 0;
  try {
    return static_cast<int>(route(src, dst).size());
  } catch (const std::runtime_error&) {
    return -1;
  }
}

int Topology::diameter() const {
  int best = 0;
  for (word s = 0; s < nodes(); ++s) {
    for (word d = 0; d < nodes(); ++d) {
      const int dist = distance(s, d);
      if (dist < 0)
        throw std::runtime_error("topology diameter: " + name() + " is disconnected");
      best = std::max(best, dist);
    }
  }
  return best;
}

HypercubeTopology::HypercubeTopology(int n)
    : Topology(TopologyId{}, cube_nodes(n), n, n) {}

TorusTopology::TorusTopology(std::vector<int> shape, bool wrap)
    : Topology(wrap ? torus_id(shape) : mesh_id(shape), checked_product(shape),
               2 * static_cast<int>(shape.size()), 0),
      shape_(std::move(shape)),
      wrap_(wrap) {
  if (shape_.empty()) throw std::invalid_argument("torus/mesh: empty shape");
  stride_.resize(shape_.size());
  word s = 1;
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    stride_[d] = s;
    s *= static_cast<word>(shape_[d]);
  }
}

word TorusTopology::neighbor_of(word x, int port) const noexcept {
  const std::size_t d = static_cast<std::size_t>(port) / 2;
  const bool up = (port % 2) == 0;
  const word radix = static_cast<word>(shape_[d]);
  if (radix == 1) return kNoNode;  // no self-links on radix-1 rings.
  const word coord = (x / stride_[d]) % radix;
  word next;
  if (up) {
    if (coord + 1 == radix) {
      if (!wrap_) return kNoNode;
      next = 0;
    } else {
      next = coord + 1;
    }
  } else {
    if (coord == 0) {
      if (!wrap_) return kNoNode;
      next = radix - 1;
    } else {
      next = coord - 1;
    }
  }
  return x + (next - coord) * stride_[d];
}

SwappedDragonflyTopology::SwappedDragonflyTopology(int K, int M)
    : Topology(dragonfly_id(K, M),
               static_cast<word>(K) * static_cast<word>(M) * static_cast<word>(M),
               (M - 1) + K, 0),
      K_(K),
      M_(M) {
  if (K < 1 || M < 1) throw std::invalid_argument("dragonfly: K and M must be >= 1");
}

word SwappedDragonflyTopology::neighbor_of(word x, int port) const noexcept {
  const word M = static_cast<word>(M_);
  const word g = x / M;  // group in [0, K*M).
  const word r = x % M;  // router within the group.
  if (port < M_ - 1) {
    // Intra-group complete graph: port p reaches router p, skipping self.
    const word peer = static_cast<word>(port) < r ? static_cast<word>(port)
                                                  : static_cast<word>(port) + 1;
    return g * M + peer;
  }
  // Global port k: the swap wiring (g, r) <-> (k*M + r, g mod M).  As in
  // OTIS/swapped networks, the diagonal port whose peer group would be
  // the node's own group is left unwired rather than self-looping.
  const word k = static_cast<word>(port - (M_ - 1));
  const word peer_group = k * M + r;
  if (peer_group == g) return kNoNode;
  return peer_group * M + (g % M);
}

std::shared_ptr<const Topology> make_topology(const TopologyId& id, int n) {
  switch (id.kind) {
    case TopoKind::hypercube:
      return std::make_shared<HypercubeTopology>(n);
    case TopoKind::torus:
      return std::make_shared<TorusTopology>(id.shape, /*wrap=*/true);
    case TopoKind::mesh:
      return std::make_shared<TorusTopology>(id.shape, /*wrap=*/false);
    case TopoKind::dragonfly:
      if (id.shape.size() != 2)
        throw std::invalid_argument("dragonfly: shape must be {K, M}");
      return std::make_shared<SwappedDragonflyTopology>(id.shape[0], id.shape[1]);
  }
  throw std::invalid_argument("make_topology: unknown topology kind");
}

}  // namespace nct::topo
