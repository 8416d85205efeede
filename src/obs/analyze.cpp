#include "obs/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "topology/hypercube.hpp"

namespace nct::obs {

std::vector<std::size_t> MessageTrace::route_links(int n) const {
  std::vector<std::size_t> links;
  links.reserve(hops.size());
  for (const TraceEvent& h : hops) links.push_back(topo::link_index(n, {h.node, h.dim}));
  return links;
}

std::vector<MessageTrace> messages_of(const TraceSink& trace) {
  // Events are recorded in execution order; a message's hop events appear
  // in traversal order, so grouping by seq preserves the route.
  std::map<std::uint64_t, MessageTrace> by_seq;
  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case EventKind::send_begin: {
        MessageTrace& m = by_seq[e.seq];
        m.seq = e.seq;
        m.phase = e.phase;
        m.src = e.node;
        m.dst = e.peer;
        m.bytes = e.bytes;
        m.inject_time = e.t0;
        break;
      }
      case EventKind::send_end:
        by_seq[e.seq].arrive_time = e.t1;
        break;
      case EventKind::hop:
        by_seq[e.seq].hops.push_back(e);
        break;
      default:
        break;
    }
  }
  std::vector<MessageTrace> out;
  out.reserve(by_seq.size());
  for (auto& [seq, m] : by_seq) {
    (void)seq;
    out.push_back(std::move(m));
  }
  return out;
}

namespace {

std::string link_str(int n, std::size_t li, const topo::Topology* t = nullptr) {
  const word from = static_cast<word>(li / static_cast<std::size_t>(std::max(n, 1)));
  const int dim = static_cast<int>(li % static_cast<std::size_t>(std::max(n, 1)));
  const word to = t != nullptr ? t->neighbor(from, dim) : cube::flip_bit(from, dim);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "link %llu -d%d-> %llu",
                static_cast<unsigned long long>(from), dim,
                static_cast<unsigned long long>(to));
  return buf;
}

/// Distinct (source, route) groups per (phase, link).  Each entry keeps
/// the routes already seen so new messages can be matched or flagged.
using PathGroups = std::map<std::pair<std::int32_t, std::size_t>,
                            std::vector<std::pair<word, std::vector<std::size_t>>>>;

PathGroups group_paths(const TraceSink& trace, const std::vector<MessageTrace>& msgs) {
  PathGroups groups;
  const int n = trace.dimensions();
  for (const MessageTrace& m : msgs) {
    const auto route = m.route_links(n);
    for (const std::size_t li : route) {
      auto& seen = groups[{m.phase, li}];
      bool found = false;
      for (const auto& [src, r] : seen) {
        if (src == m.src && r == route) {
          found = true;
          break;
        }
      }
      if (!found) seen.emplace_back(m.src, route);
    }
  }
  return groups;
}

}  // namespace

namespace {

CheckResult check_edge_disjoint_impl(const TraceSink& trace, const topo::Topology* t) {
  const auto msgs = messages_of(trace);
  const auto groups = group_paths(trace, msgs);
  for (const auto& [key, seen] : groups) {
    // Two different routes of the same source crossing one link: the
    // source's path family is not edge-disjoint.
    for (std::size_t i = 0; i < seen.size(); ++i) {
      for (std::size_t j = i + 1; j < seen.size(); ++j) {
        if (seen[i].first != seen[j].first) continue;
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "phase %d: two paths of source %llu share ",
                      static_cast<int>(key.first),
                      static_cast<unsigned long long>(seen[i].first));
        return CheckResult{false, std::string(buf) +
                                      link_str(trace.dimensions(), key.second, t)};
      }
    }
  }
  return CheckResult{};
}

void require_trace_on(const TraceSink& trace, const topo::Topology& t) {
  if (t.ports() != trace.dimensions() || t.nodes() != trace.nodes())
    throw std::invalid_argument("trace/topology shape mismatch");
}

}  // namespace

CheckResult check_edge_disjoint(const TraceSink& trace) {
  return check_edge_disjoint_impl(trace, nullptr);
}

CheckResult check_edge_disjoint(const TraceSink& trace, const topo::Topology& t) {
  require_trace_on(trace, t);
  return check_edge_disjoint_impl(trace, &t);
}

void assert_edge_disjoint(const TraceSink& trace) {
  const CheckResult r = check_edge_disjoint(trace);
  if (!r.ok) throw ConformanceError("edge-disjointness violated: " + r.message);
}

void assert_edge_disjoint(const TraceSink& trace, const topo::Topology& t) {
  const CheckResult r = check_edge_disjoint(trace, t);
  if (!r.ok) throw ConformanceError("edge-disjointness violated: " + r.message);
}

std::size_t max_paths_per_link(const TraceSink& trace) {
  const auto msgs = messages_of(trace);
  const auto groups = group_paths(trace, msgs);
  std::size_t mx = 0;
  for (const auto& [key, seen] : groups) {
    (void)key;
    mx = std::max(mx, seen.size());
  }
  return mx;
}

namespace {

CheckResult check_disjoint_intervals(const TraceSink& trace, EventKind kind,
                                     const char* port_name) {
  // Gather per-node intervals; endpoints may touch (a port freed at t can
  // be reused at t).
  std::map<word, std::vector<std::pair<double, double>>> by_node;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == kind) by_node[e.node].emplace_back(e.t0, e.t1);
  }
  for (auto& [node, iv] : by_node) {
    std::sort(iv.begin(), iv.end());
    for (std::size_t i = 1; i < iv.size(); ++i) {
      if (iv[i].first < iv[i - 1].second - 0.0) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "node %llu %s port busy [%.9g, %.9g] overlaps [%.9g, %.9g]",
                      static_cast<unsigned long long>(node), port_name, iv[i - 1].first,
                      iv[i - 1].second, iv[i].first, iv[i].second);
        return CheckResult{false, buf};
      }
    }
  }
  return CheckResult{};
}

}  // namespace

CheckResult check_one_port(const TraceSink& trace) {
  CheckResult r = check_disjoint_intervals(trace, EventKind::send_begin, "send");
  if (!r.ok) return r;
  return check_disjoint_intervals(trace, EventKind::send_end, "receive");
}

void assert_one_port(const TraceSink& trace) {
  const CheckResult r = check_one_port(trace);
  if (!r.ok) throw ConformanceError("one-port serialisation violated: " + r.message);
}

CheckResult check_one_port(const TraceSink& trace, const topo::Topology& t) {
  require_trace_on(trace, t);
  return check_one_port(trace);
}

void assert_one_port(const TraceSink& trace, const topo::Topology& t) {
  const CheckResult r = check_one_port(trace, t);
  if (!r.ok) throw ConformanceError("one-port serialisation violated: " + r.message);
}

namespace {

/// Add the busy interval of hop `e` to a +1/-1 endpoint sweep.
void add_interval(std::vector<std::pair<double, int>>& sw, const TraceEvent& e) {
  sw.emplace_back(e.t0, +1);
  sw.emplace_back(e.t1, -1);
}

/// Largest number of simultaneously open intervals of a sweep; an
/// interval ending exactly where another starts does not overlap it.
int sweep_peak(std::vector<std::pair<double, int>>& sw) {
  std::sort(sw.begin(), sw.end(), [](const auto& a, const auto& b) {
    return a.first < b.first || (a.first == b.first && a.second < b.second);
  });
  int depth = 0, mx = 0;
  for (const auto& [t, delta] : sw) {
    (void)t;
    depth += delta;
    mx = std::max(mx, depth);
  }
  return mx;
}

}  // namespace

std::vector<int> peak_concurrent_out_ports(const TraceSink& trace) {
  std::vector<int> peak(static_cast<std::size_t>(trace.nodes()), 0);
  std::map<word, std::vector<std::pair<double, int>>> sweeps;
  for (const TraceEvent& e : trace.events())
    if (e.kind == EventKind::hop) add_interval(sweeps[e.node], e);
  for (auto& [node, sw] : sweeps)
    if (node < trace.nodes()) peak[static_cast<std::size_t>(node)] = sweep_peak(sw);
  return peak;
}

std::size_t peak_link_overlap(const TraceSink& trace) {
  const auto ports = static_cast<word>(std::max(trace.dimensions(), 1));
  std::map<word, std::vector<std::pair<double, int>>> sweeps;
  for (const TraceEvent& e : trace.events())
    if (e.kind == EventKind::hop)
      add_interval(sweeps[e.node * ports + static_cast<word>(e.dim)], e);
  int peak = 0;
  for (auto& [link, sw] : sweeps) peak = std::max(peak, sweep_peak(sw));
  return static_cast<std::size_t>(peak);
}

double CriticalPath::wire_time() const noexcept {
  double t = 0.0;
  for (const CriticalSegment& s : segments)
    if (s.kind == CriticalSegment::Kind::wire) t += s.duration();
  return t;
}

double CriticalPath::wait_time() const noexcept {
  double t = 0.0;
  for (const CriticalSegment& s : segments)
    if (s.kind != CriticalSegment::Kind::wire) t += s.duration();
  return t;
}

CriticalPath phase_critical_path(const TraceSink& trace, std::int32_t phase) {
  CriticalPath cp;
  cp.phase = phase;

  // The last-arriving message of the phase.
  const MessageTrace* last = nullptr;
  const auto msgs = messages_of(trace);
  for (const MessageTrace& m : msgs) {
    if (m.phase != phase) continue;
    if (!last || m.arrive_time > last->arrive_time) last = &m;
  }
  if (!last) return cp;

  cp.seq = last->seq;
  cp.src = last->src;
  cp.dst = last->dst;
  cp.start = last->inject_time;
  cp.end = last->arrive_time;

  // Port-wait windows of this message, to classify inter-hop stalls.
  std::vector<std::pair<double, double>> waits;
  for (const TraceEvent& e : trace.events()) {
    if ((e.kind == EventKind::port_wait_send || e.kind == EventKind::port_wait_recv) &&
        e.seq == last->seq) {
      waits.emplace_back(e.t0, e.t1);
    }
  }

  double prev_end = last->inject_time;
  for (const TraceEvent& h : last->hops) {
    if (h.t0 > prev_end) {
      // A stall before this hop: attribute to the port if a port-wait
      // event of this message covers the window, else the link was busy.
      bool is_port = false;
      for (const auto& [a, b] : waits) {
        if (a <= h.t0 && h.t0 <= b) {
          is_port = true;
          break;
        }
      }
      cp.segments.push_back(CriticalSegment{is_port ? CriticalSegment::Kind::port_wait
                                                    : CriticalSegment::Kind::link_wait,
                                            prev_end, h.t0, -1});
    }
    cp.segments.push_back(CriticalSegment{CriticalSegment::Kind::wire, h.t0, h.t1, h.dim});
    prev_end = h.t1;
  }
  return cp;
}

std::string format_critical_path(const CriticalPath& cp) {
  char buf[192];
  if (cp.seq == kNoSeq) {
    std::snprintf(buf, sizeof(buf), "phase %d: no messages\n", cp.phase);
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "phase %d critical path: msg #%llu %llu -> %llu, [%.9g, %.9g] "
                "(wire %.6g ms, waits %.6g ms)\n",
                cp.phase, static_cast<unsigned long long>(cp.seq),
                static_cast<unsigned long long>(cp.src),
                static_cast<unsigned long long>(cp.dst), cp.start, cp.end,
                cp.wire_time() * 1e3, cp.wait_time() * 1e3);
  std::string out = buf;
  for (const CriticalSegment& s : cp.segments) {
    const char* kind = s.kind == CriticalSegment::Kind::wire
                           ? "wire"
                           : (s.kind == CriticalSegment::Kind::link_wait ? "link-wait"
                                                                         : "port-wait");
    if (s.kind == CriticalSegment::Kind::wire) {
      std::snprintf(buf, sizeof(buf), "  %-9s dim %d  [%.9g, %.9g]  %.6g ms\n", kind,
                    s.dim, s.t0, s.t1, s.duration() * 1e3);
    } else {
      std::snprintf(buf, sizeof(buf), "  %-9s        [%.9g, %.9g]  %.6g ms\n", kind, s.t0,
                    s.t1, s.duration() * 1e3);
    }
    out += buf;
  }
  return out;
}

std::vector<TraceSink> split_stages(const TraceSink& trace) {
  std::vector<std::vector<TraceEvent>> slices(1);
  bool saw_boundary = false;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == EventKind::stage_boundary) {
      // The first boundary opens slice 0 (nothing precedes it in a
      // pipeline-merged trace); later boundaries start a new slice.
      if (saw_boundary || !slices.back().empty()) slices.emplace_back();
      saw_boundary = true;
      continue;
    }
    slices.back().push_back(e);
  }
  std::vector<TraceSink> out;
  out.reserve(slices.size());
  const std::vector<std::string> labels(trace.phase_labels());
  for (auto& events : slices) {
    TraceSink sink;
    sink.restore_topology(trace.nodes(), trace.dimensions(), labels, std::move(events));
    out.push_back(std::move(sink));
  }
  return out;
}

}  // namespace nct::obs
