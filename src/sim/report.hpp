// Human-readable reports over simulation results: per-phase timing
// breakdowns, per-dimension traffic, and link-utilization summaries —
// the observability layer for studying congestion claims (edge
// disjointness, (2,2H)-disjointness, port bottlenecks).
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/program.hpp"

namespace nct::sim {

/// Traffic aggregated per cube dimension across a program.
struct DimensionTraffic {
  int dim = 0;
  std::size_t messages = 0;  ///< message-hops crossing this dimension.
  std::size_t elements = 0;  ///< element-hops crossing this dimension.
};

/// Per-dimension traffic of a program (route-hop weighted).
std::vector<DimensionTraffic> dimension_traffic(const Program& program);

/// Multi-line text report: total time, per-phase rows (duration, sends,
/// elements, copy time) and the per-dimension traffic table.
std::string format_report(const Program& program, const RunResult& result);

/// As above, followed by the trace-derived metrics block (see
/// obs::collect_metrics) — pass the report of the traced run.
std::string format_report(const Program& program, const RunResult& result,
                          const obs::MetricsReport& metrics);

}  // namespace nct::sim
