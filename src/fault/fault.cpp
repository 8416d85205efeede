#include "fault/fault.hpp"

#include <algorithm>
#include <queue>
#include <string>

namespace nct::fault {

namespace {

void check_link(int n, topo::DirectedLink l, const char* what) {
  const word nodes = word{1} << n;
  if (l.from >= nodes || l.dim < 0 || l.dim >= n) {
    throw std::invalid_argument(std::string("FaultModel: ") + what + " out of range for n=" +
                                std::to_string(n));
  }
}

void check_window(Window w) {
  if (!(w.from >= 0.0) || !(w.until > w.from)) {
    throw std::invalid_argument("FaultModel: fault window must satisfy 0 <= from < until");
  }
}

/// Sort and merge overlapping/adjacent windows in place.
void normalise(std::vector<Window>& ws) {
  std::sort(ws.begin(), ws.end(), [](const Window& a, const Window& b) {
    return a.from < b.from || (a.from == b.from && a.until < b.until);
  });
  std::size_t out = 0;
  for (const Window& w : ws) {
    if (out > 0 && w.from <= ws[out - 1].until) {
      ws[out - 1].until = std::max(ws[out - 1].until, w.until);
    } else {
      ws[out++] = w;
    }
  }
  ws.resize(out);
}

const std::vector<Window> kNoWindows;

}  // namespace

FaultModel::FaultModel(int n, const FaultSpec& spec) : n_(n) {
  if (n < 0 || n > cube::kMaxBits) throw std::invalid_argument("FaultModel: bad dimension count");
  if (spec.empty()) return;
  any_faults_ = true;

  const std::size_t nlinks =
      static_cast<std::size_t>(word{1} << n) * static_cast<std::size_t>(std::max(n, 1));
  windows_.resize(nlinks);
  degrade_.assign(nlinks, 1.0);

  const auto add = [&](topo::DirectedLink l, Window w, bool both) {
    windows_[topo::link_index(n_, l)].push_back(w);
    if (both) windows_[topo::link_index(n_, {l.to(), l.dim})].push_back(w);
  };

  for (const LinkFault& f : spec.links) {
    check_link(n, f.link, "link fault");
    check_window(f.when);
    add(f.link, f.when, f.both_directions);
  }
  for (const NodeFault& f : spec.nodes) {
    if (f.node >= (word{1} << n)) {
      throw std::invalid_argument("FaultModel: node fault out of range for n=" +
                                  std::to_string(n));
    }
    check_window(f.when);
    // A down node can neither drive nor accept any of its n links, in
    // either direction.
    for (int d = 0; d < n; ++d) add({f.node, d}, f.when, /*both=*/true);
  }
  for (const LinkDegrade& f : spec.degraded) {
    check_link(n, f.link, "link degrade");
    if (!(f.factor >= 1.0)) {
      throw std::invalid_argument("FaultModel: degrade factor must be >= 1");
    }
    auto& slot = degrade_[topo::link_index(n_, f.link)];
    slot = std::max(slot, f.factor);
    if (f.both_directions) {
      auto& back = degrade_[topo::link_index(n_, {f.link.to(), f.link.dim})];
      back = std::max(back, f.factor);
    }
  }

  for (auto& ws : windows_) normalise(ws);
}

FaultModel::FaultModel(std::shared_ptr<const topo::Topology> t, const FaultSpec& spec)
    : n_(t->ports()), topo_id_(t->id()), topo_(std::move(t)) {
  if (spec.empty()) return;
  any_faults_ = true;

  const topo::Topology& topology = *topo_;
  windows_.resize(topology.link_slots());
  degrade_.assign(topology.link_slots(), 1.0);

  const auto check = [&](topo::DirectedLink l, const char* what) {
    if (l.from >= topology.nodes() || l.dim < 0 || l.dim >= topology.ports() ||
        topology.neighbor(l.from, l.dim) == topo::kNoNode) {
      throw std::invalid_argument(std::string("FaultModel: ") + what +
                                  " names no link of " + topology.name());
    }
  };
  const auto add = [&](topo::DirectedLink l, Window w, bool both) {
    windows_[topology.link_index(l.from, l.dim)].push_back(w);
    if (both) {
      const word to = topology.neighbor(l.from, l.dim);
      windows_[topology.link_index(to, topology.reverse_port(l.from, l.dim))].push_back(w);
    }
  };

  for (const LinkFault& f : spec.links) {
    check(f.link, "link fault");
    check_window(f.when);
    add(f.link, f.when, f.both_directions);
  }
  for (const NodeFault& f : spec.nodes) {
    if (f.node >= topology.nodes()) {
      throw std::invalid_argument("FaultModel: node fault out of range for " +
                                  topology.name());
    }
    check_window(f.when);
    // A down node can neither drive nor accept any of its wired ports.
    for (int p = 0; p < topology.ports(); ++p) {
      if (topology.neighbor(f.node, p) == topo::kNoNode) continue;
      add({f.node, p}, f.when, /*both=*/true);
    }
  }
  for (const LinkDegrade& f : spec.degraded) {
    check(f.link, "link degrade");
    if (!(f.factor >= 1.0)) {
      throw std::invalid_argument("FaultModel: degrade factor must be >= 1");
    }
    auto& slot = degrade_[topology.link_index(f.link.from, f.link.dim)];
    slot = std::max(slot, f.factor);
    if (f.both_directions) {
      const word to = topology.neighbor(f.link.from, f.link.dim);
      auto& back =
          degrade_[topology.link_index(to, topology.reverse_port(f.link.from, f.link.dim))];
      back = std::max(back, f.factor);
    }
  }

  for (auto& ws : windows_) normalise(ws);
}

double FaultModel::up_at(std::size_t li, double t) const noexcept {
  if (li >= windows_.size()) return t;
  for (const Window& w : windows_[li]) {
    if (t < w.from) return t;  // windows sorted: all later ones start later.
    if (t < w.until) return w.until;
  }
  return t;
}

bool FaultModel::permanently_down(std::size_t li) const noexcept {
  if (li >= windows_.size()) return false;
  const auto& ws = windows_[li];
  return !ws.empty() && ws.back().permanent();
}

const std::vector<Window>& FaultModel::windows(std::size_t li) const noexcept {
  return li < windows_.size() ? windows_[li] : kNoWindows;
}

bool FaultModel::route_blocked(word src, std::span<const int> route) const noexcept {
  if (!any_faults_) return false;
  word at = src;
  if (topo_) {
    for (const int d : route) {
      if (permanently_down(topo_->link_index(at, d))) return true;
      at = topo_->neighbor(at, d);
      if (at == topo::kNoNode) return true;  // route walks off an unwired port.
    }
    return false;
  }
  for (const int d : route) {
    if (permanently_down(topo::link_index(n_, {at, d}))) return true;
    at = cube::flip_bit(at, d);
  }
  return false;
}

std::optional<std::vector<int>> route_around(int n, word src, word dst,
                                             const FaultModel& model) {
  if (src == dst) return std::vector<int>{};
  const word nodes = word{1} << n;
  if (src >= nodes || dst >= nodes) return std::nullopt;

  // BFS with first-visit wins; neighbours expanded in ascending dimension
  // order makes the recovered shortest route deterministic.
  std::vector<std::int8_t> via(static_cast<std::size_t>(nodes), -1);
  std::queue<word> frontier;
  via[static_cast<std::size_t>(src)] = static_cast<std::int8_t>(n);  // sentinel: origin.
  frontier.push(src);
  while (!frontier.empty()) {
    const word x = frontier.front();
    frontier.pop();
    for (int d = 0; d < n; ++d) {
      const word y = cube::flip_bit(x, d);
      if (via[static_cast<std::size_t>(y)] >= 0) continue;
      if (model.permanently_down(topo::link_index(n, {x, d}))) continue;
      via[static_cast<std::size_t>(y)] = static_cast<std::int8_t>(d);
      if (y == dst) {
        std::vector<int> route;
        word at = y;
        while (at != src) {
          const int dim = via[static_cast<std::size_t>(at)];
          route.push_back(dim);
          at = cube::flip_bit(at, dim);
        }
        std::reverse(route.begin(), route.end());
        return route;
      }
      frontier.push(y);
    }
  }
  return std::nullopt;
}

std::optional<std::vector<int>> route_around(const topo::Topology& t, word src, word dst,
                                             const FaultModel& model) {
  if (src == dst) return std::vector<int>{};
  if (src >= t.nodes() || dst >= t.nodes()) return std::nullopt;

  // Same discipline as the cube overload and Topology::route: BFS, ports
  // ascending, first visit wins.
  const std::size_t nn = static_cast<std::size_t>(t.nodes());
  std::vector<int> via(nn, -1);
  std::vector<word> parent(nn, topo::kNoNode);
  std::queue<word> frontier;
  via[static_cast<std::size_t>(src)] = t.ports();  // sentinel: origin.
  frontier.push(src);
  while (!frontier.empty()) {
    const word x = frontier.front();
    frontier.pop();
    for (int p = 0; p < t.ports(); ++p) {
      const word y = t.neighbor(x, p);
      if (y == topo::kNoNode || via[static_cast<std::size_t>(y)] >= 0) continue;
      if (model.permanently_down(t.link_index(x, p))) continue;
      via[static_cast<std::size_t>(y)] = p;
      parent[static_cast<std::size_t>(y)] = x;
      if (y == dst) {
        std::vector<int> route;
        word at = y;
        while (at != src) {
          route.push_back(via[static_cast<std::size_t>(at)]);
          at = parent[static_cast<std::size_t>(at)];
        }
        std::reverse(route.begin(), route.end());
        return route;
      }
      frontier.push(y);
    }
  }
  return std::nullopt;
}

}  // namespace nct::fault
