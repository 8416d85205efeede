#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "topology/hypercube.hpp"

namespace nct::obs {

Histogram::Histogram(std::string name, std::vector<double> bounds, std::string unit) {
  data_.name = std::move(name);
  data_.unit = std::move(unit);
  data_.bounds = std::move(bounds);
  std::sort(data_.bounds.begin(), data_.bounds.end());
  data_.counts.assign(data_.bounds.size() + 1, 0);
}

void Histogram::observe(double v) {
  std::size_t b = 0;
  while (b < data_.bounds.size() && v > data_.bounds[b]) ++b;
  data_.counts[b] += 1;
  data_.total += 1;
  data_.sum += v;
  data_.min = std::min(data_.min, v);
  data_.max = std::max(data_.max, v);
}

double& MetricsRegistry::counter(const std::string& name, const std::string& unit) {
  for (Metric& m : scalars_) {
    if (m.name == name) return m.value;
  }
  scalars_.push_back(Metric{name, 0.0, unit});
  return scalars_.back().value;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds,
                                      const std::string& unit) {
  for (Histogram& h : histograms_) {
    if (h.data().name == name) return h;
  }
  histograms_.emplace_back(name, std::move(bounds), unit);
  return histograms_.back();
}

MetricsRegistry::Report MetricsRegistry::snapshot() const {
  Report r;
  r.scalars.assign(scalars_.begin(), scalars_.end());
  r.histograms.reserve(histograms_.size());
  for (const Histogram& h : histograms_) r.histograms.push_back(h.data());
  return r;
}

const Metric* MetricsRegistry::Report::find(const std::string& name) const {
  for (const Metric& m : scalars) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double MetricsRegistry::Report::value(const std::string& name, double fallback) const {
  const Metric* m = find(name);
  return m ? m->value : fallback;
}

namespace {

std::string fmt_value(double v, const std::string& unit) {
  char buf[64];
  if (unit == "s") {
    std::snprintf(buf, sizeof(buf), "%.6g ms", v * 1e3);
  } else if (unit == "%") {
    std::snprintf(buf, sizeof(buf), "%.2f %%", v);
  } else if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld%s%s", static_cast<long long>(v),
                  unit.empty() ? "" : " ", unit.c_str());
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g%s%s", v, unit.empty() ? "" : " ", unit.c_str());
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num_json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::Report::format() const {
  std::string out = "metrics:\n";
  for (const Metric& m : scalars) {
    out += "  " + m.name + ": " + fmt_value(m.value, m.unit) + "\n";
  }
  for (const HistogramData& h : histograms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  %s: n=%llu mean=%.6g min=%.6g max=%.6g %s\n", h.name.c_str(),
                  static_cast<unsigned long long>(h.total), h.mean(),
                  h.total ? h.min : 0.0, h.max, h.unit.c_str());
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::Report::to_json() const {
  std::string out = "{\"scalars\": {";
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const Metric& m = scalars[i];
    out += (i ? ", " : "") + ("\"" + json_escape(m.name) + "\": {\"value\": ") +
           num_json(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  out += "}, \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramData& h = histograms[i];
    out += (i ? ", " : "") + ("\"" + json_escape(h.name) + "\": {\"unit\": \"") +
           json_escape(h.unit) + "\", \"total\": " + std::to_string(h.total) +
           ", \"sum\": " + num_json(h.sum) + ", \"min\": " + num_json(h.total ? h.min : 0.0) +
           ", \"max\": " + num_json(h.max) + ", \"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b)
      out += (b ? ", " : "") + num_json(h.bounds[b]);
    out += "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b)
      out += (b ? ", " : "") + std::to_string(h.counts[b]);
    out += "]}";
  }
  out += "}}";
  return out;
}

MetricsReport collect_metrics(const TraceSink& trace) {
  MetricsRegistry reg;
  const int n = trace.dimensions();
  const double total_time = trace.total_time();

  double& phases = reg.counter("sim/phases");
  reg.counter("sim/total_time", "s") = total_time;
  double& sends = reg.counter("traffic/sends");
  double& hops = reg.counter("traffic/hops");
  double& bytes_injected = reg.counter("traffic/bytes_injected", "bytes");
  double& bytes_hops = reg.counter("traffic/bytes_hops", "bytes");

  std::vector<double*> dim_hops, dim_bytes;
  for (int d = 0; d < n; ++d) {
    const std::string base = "traffic/dim" + std::to_string(d);
    dim_hops.push_back(&reg.counter(base + "/hops"));
    dim_bytes.push_back(&reg.counter(base + "/bytes", "bytes"));
  }

  double& wire = reg.counter("time/wire", "s");
  double& copy = reg.counter("time/copy", "s");
  double& port_wait = reg.counter("time/port_wait", "s");
  double& copy_share = reg.counter("time/copy_share", "%");
  double& util_avg = reg.counter("link/utilization_avg", "%");
  double& util_max = reg.counter("link/utilization_max", "%");
  double& max_inflight = reg.counter("link/max_inflight");
  double& wait_max = reg.counter("port/wait_max", "s");

  // Log-spaced duration buckets covering us..minutes of simulated time.
  const std::vector<double> buckets{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};
  Histogram& hop_hist = reg.histogram("hop/duration", buckets, "s");
  Histogram& wait_hist = reg.histogram("port/wait", buckets, "s");

  // Fault metrics only register when the trace carries fault events, so
  // healthy-run reports (and the bench --json series) are unchanged.
  bool any_fault = false;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind >= EventKind::link_down) {
      any_fault = true;
      break;
    }
  }
  double* fault_downs = nullptr;
  double* fault_down_time = nullptr;
  double* fault_retries = nullptr;
  double* fault_reroutes = nullptr;
  double* fault_aborts = nullptr;
  double* fault_extra_hops = nullptr;
  if (any_fault) {
    fault_downs = &reg.counter("fault/link_down");
    fault_down_time = &reg.counter("fault/link_down_time", "s");
    fault_retries = &reg.counter("fault/retries");
    fault_reroutes = &reg.counter("fault/reroutes");
    fault_aborts = &reg.counter("fault/aborts");
    fault_extra_hops = &reg.counter("fault/extra_hops");
  }
  std::map<std::uint64_t, int> reroute_dist;  ///< rerouted seq -> Hamming(src, dst).
  std::map<std::uint64_t, int> seq_hops;      ///< observed hops per message.

  // Per-link busy time and interval lists (for utilization / in-flight).
  std::map<std::size_t, double> link_busy;
  std::map<std::size_t, std::vector<std::pair<double, double>>> link_intervals;

  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case EventKind::phase_begin:
        phases += 1;
        break;
      case EventKind::send_begin:
        sends += 1;
        bytes_injected += static_cast<double>(e.bytes);
        break;
      case EventKind::hop: {
        hops += 1;
        bytes_hops += static_cast<double>(e.bytes);
        const double dur = e.t1 - e.t0;
        wire += dur;
        hop_hist.observe(dur);
        if (e.dim >= 0 && e.dim < n) {
          *dim_hops[static_cast<std::size_t>(e.dim)] += 1;
          *dim_bytes[static_cast<std::size_t>(e.dim)] += static_cast<double>(e.bytes);
        }
        const std::size_t li = topo::link_index(n, {e.node, e.dim});
        link_busy[li] += dur;
        link_intervals[li].emplace_back(e.t0, e.t1);
        if (any_fault && e.seq != kNoSeq) seq_hops[e.seq] += 1;
        break;
      }
      case EventKind::link_down:
        *fault_downs += 1;
        *fault_down_time += e.t1 - e.t0;
        break;
      case EventKind::retry:
        *fault_retries += 1;
        break;
      case EventKind::reroute:
        *fault_reroutes += 1;
        reroute_dist[e.seq] = cube::hamming(e.node, e.peer);
        break;
      case EventKind::aborted:
        *fault_aborts += 1;
        break;
      case EventKind::port_wait_send:
      case EventKind::port_wait_recv: {
        const double dur = e.t1 - e.t0;
        port_wait += dur;
        wait_hist.observe(dur);
        wait_max = std::max(wait_max, dur);
        break;
      }
      case EventKind::copy:
      case EventKind::stage:
        copy += e.t1 - e.t0;
        break;
      default:
        break;
    }
  }

  if (copy + wire > 0.0) copy_share = 100.0 * copy / (copy + wire);

  // Extra hops: for each rerouted message, how far its observed route
  // exceeds the Hamming distance (the healthy shortest-path length).
  for (const auto& [seq, dist] : reroute_dist) {
    const auto it = seq_hops.find(seq);
    if (it != seq_hops.end() && it->second > dist)
      *fault_extra_hops += static_cast<double>(it->second - dist);
  }

  const double nlinks = static_cast<double>(trace.nodes()) * std::max(n, 1);
  if (total_time > 0.0 && nlinks > 0.0) {
    double busy_sum = 0.0, busy_peak = 0.0;
    for (const auto& [li, busy] : link_busy) {
      (void)li;
      busy_sum += busy;
      busy_peak = std::max(busy_peak, busy);
    }
    util_avg = 100.0 * busy_sum / (nlinks * total_time);
    util_max = 100.0 * busy_peak / total_time;
  }

  // Peak overlap depth of busy intervals on any single link.
  std::size_t peak = 0;
  std::vector<std::pair<double, int>> sweep;
  for (auto& [li, intervals] : link_intervals) {
    (void)li;
    sweep.clear();
    for (const auto& [a, b] : intervals) {
      sweep.emplace_back(a, +1);
      sweep.emplace_back(b, -1);
    }
    std::sort(sweep.begin(), sweep.end(), [](const auto& a, const auto& b) {
      return a.first < b.first || (a.first == b.first && a.second < b.second);
    });
    int depth = 0;
    for (const auto& [t, delta] : sweep) {
      (void)t;
      depth += delta;
      peak = std::max(peak, static_cast<std::size_t>(std::max(depth, 0)));
    }
  }
  max_inflight = static_cast<double>(peak);

  return reg.snapshot();
}

}  // namespace nct::obs
