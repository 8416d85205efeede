#include "fault/fault.hpp"

#include <algorithm>
#include <string>

namespace nct::fault {

namespace {

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

FaultModel::FaultModel(int n, const FaultSpec& spec)
    : FaultModel(topo::make_topology(topo::TopologyId{}, n), spec) {}

FaultModel::FaultModel(std::shared_ptr<const topo::Topology> t, const FaultSpec& spec)
    : topo_(std::move(t)) {
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
  for (const int d : route) {
    if (permanently_down(topo_->link_index(at, d))) return true;
    at = topo_->neighbor(at, d);
    if (at == topo::kNoNode) return true;  // route walks off an unwired port.
  }
  return false;
}

std::optional<std::vector<int>> route_around(const topo::Topology& t, word src, word dst,
                                             const FaultModel& model) {
  return t.shortest_route(src, dst,
                          [&model](std::size_t li) { return !model.permanently_down(li); });
}

}  // namespace nct::fault
