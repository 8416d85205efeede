// Metrics registry and the trace-derived simulation metrics.
//
// MetricsRegistry holds named scalar counters and fixed-bucket
// histograms; a snapshot (MetricsReport) is what reports and the bench
// JSON emitter consume.  collect_metrics() derives the standard
// simulation metrics from a trace: per-dimension traffic, port-wait
// time, link utilization, peak in-flight messages per link, and the
// copy-vs-wire time split — every congestion claim in the ROADMAP as a
// number you can regression-test.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace nct::obs {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< "s", "bytes", "%", "" (count), ...
};

struct HistogramData {
  std::string name;
  std::string unit;
  std::vector<double> bounds;          ///< ascending bucket upper bounds.
  std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (last: overflow).
  std::uint64_t total = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = 0.0;

  double mean() const noexcept { return total ? sum / static_cast<double>(total) : 0.0; }
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(std::string name, std::vector<double> bounds, std::string unit);

  void observe(double v);
  const HistogramData& data() const noexcept { return data_; }

 private:
  HistogramData data_;
};

/// Insertion-ordered registry of named counters and histograms.
/// counter() returns a mutable accumulator; re-requesting a name returns
/// the same metric.  Returned references stay valid while the registry
/// lives (deque storage: registering more metrics never relocates
/// existing ones).
class MetricsRegistry {
 public:
  double& counter(const std::string& name, const std::string& unit = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& unit = "");

  /// Snapshot in registration order.
  struct Report;
  Report snapshot() const;

 private:
  std::deque<Metric> scalars_;
  std::deque<Histogram> histograms_;
};

struct MetricsRegistry::Report {
  std::vector<Metric> scalars;
  std::vector<HistogramData> histograms;

  const Metric* find(const std::string& name) const;
  /// Value of a scalar metric, or `fallback` if absent.
  double value(const std::string& name, double fallback = 0.0) const;

  /// Multi-line human-readable block (used by sim::format_report).
  std::string format() const;
  /// JSON object: {"scalars": {name: {value, unit}}, "histograms": {...}}.
  std::string to_json() const;
};

using MetricsReport = MetricsRegistry::Report;

/// The standard simulation metrics over a trace.  Names:
///   sim/total_time (s), sim/phases, traffic/sends, traffic/hops,
///   traffic/bytes_injected, traffic/bytes_hops,
///   traffic/dim<k>/hops, traffic/dim<k>/bytes  (one pair per dimension),
///   time/wire (s, summed link busy), time/copy (s), time/port_wait (s),
///   time/copy_share (%, copy vs copy+wire),
///   link/utilization_avg (%), link/utilization_max (%),
///   link/max_inflight, port/wait_max (s),
/// plus histograms hop/duration (s) and port/wait (s).
/// Traces carrying fault events additionally report:
///   fault/link_down, fault/link_down_time (s), fault/retries,
///   fault/reroutes, fault/aborts,
///   fault/extra_hops (hops beyond Hamming distance on rerouted messages).
MetricsReport collect_metrics(const TraceSink& trace);

}  // namespace nct::obs
