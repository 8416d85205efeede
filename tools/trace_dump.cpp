// trace_dump: inspect a binary simulation trace (see obs/trace.hpp),
// as written by obs::write_binary_trace.  A missing, truncated or
// otherwise malformed file is a hard error with a nonzero exit, never a
// silent partial dump.
//
// Usage:
//   trace_dump TRACE.bin                  summary (phases, events, makespan)
//   trace_dump TRACE.bin --metrics        derived metrics (obs/metrics.hpp)
//   trace_dump TRACE.bin --critical       per-phase critical paths
//   trace_dump TRACE.bin --events [N]     first N raw events (default 50)
//   trace_dump TRACE.bin --check NAME     run an analyzer: edge-disjoint | one-port
//   trace_dump TRACE.bin --chrome OUT     convert to Chrome/Perfetto JSON
//
// Options combine; --check failures set a non-zero exit status so the
// tool can gate CI jobs on trace conformance.
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "cli_number.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s TRACE.bin [--metrics] [--critical] [--events [N]]\n"
               "          [--check edge-disjoint|one-port] [--chrome OUT.json]\n",
               argv0);
  return 2;
}

/// Degraded-mode digest: printed only when the trace carries fault
/// events, so healthy-trace output is unchanged.
void print_fault_summary(const nct::obs::TraceSink& trace) {
  std::size_t downs = 0, retries = 0, reroutes = 0, aborts = 0;
  double down_time = 0.0;
  std::set<std::pair<unsigned long long, int>> down_links;
  for (const nct::obs::TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case nct::obs::EventKind::link_down:
        downs += 1;
        down_time += e.t1 - e.t0;
        down_links.insert({static_cast<unsigned long long>(e.node), e.dim});
        break;
      case nct::obs::EventKind::retry:
        retries += 1;
        break;
      case nct::obs::EventKind::reroute:
        reroutes += 1;
        break;
      case nct::obs::EventKind::aborted:
        aborts += 1;
        break;
      default:
        break;
    }
  }
  if (downs + retries + reroutes + aborts == 0) return;
  std::printf("faults:\n");
  std::printf("  blocked hops     %zu (on %zu distinct links, %.9g s waiting)\n", downs,
              down_links.size(), down_time);
  std::printf("  retries          %zu\n", retries);
  std::printf("  rerouted sends   %zu\n", reroutes);
  std::printf("  aborts           %zu\n", aborts);
}

void print_summary(const nct::obs::TraceSink& trace) {
  std::size_t per_kind[16] = {};
  for (const nct::obs::TraceEvent& e : trace.events())
    per_kind[static_cast<std::size_t>(e.kind) & 15] += 1;
  std::printf("cube:      n = %d (%llu nodes)\n", trace.dimensions(),
              static_cast<unsigned long long>(trace.nodes()));
  std::printf("events:    %zu\n", trace.events().size());
  for (int k = 0; k < 16; ++k) {
    if (!per_kind[k]) continue;
    std::printf("  %-16s %zu\n",
                nct::obs::event_kind_name(static_cast<nct::obs::EventKind>(k)), per_kind[k]);
  }
  std::printf("phases:    %zu\n", trace.phase_labels().size());
  for (std::size_t i = 0; i < trace.phase_labels().size(); ++i)
    std::printf("  [%zu] %s\n", i, trace.phase_labels()[i].c_str());
  std::printf("makespan:  %.9g s\n", trace.total_time());
  print_fault_summary(trace);
}

void print_events(const nct::obs::TraceSink& trace, std::size_t limit) {
  const auto& ev = trace.events();
  const std::size_t n = std::min(limit, ev.size());
  for (std::size_t i = 0; i < n; ++i) {
    const nct::obs::TraceEvent& e = ev[i];
    std::printf("%6zu %-14s ph %2d  node %4llu  peer %4llu  dim %2d  [%.9g, %.9g]",
                i, nct::obs::event_kind_name(e.kind), e.phase,
                static_cast<unsigned long long>(e.node),
                static_cast<unsigned long long>(e.peer), e.dim, e.t0, e.t1);
    if (e.seq != nct::obs::kNoSeq)
      std::printf("  seq %llu", static_cast<unsigned long long>(e.seq));
    if (e.bytes) std::printf("  %llu B", static_cast<unsigned long long>(e.bytes));
    std::printf("\n");
  }
  if (n < ev.size()) std::printf("... (%zu more)\n", ev.size() - n);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];

  bool want_metrics = false, want_critical = false, want_events = false;
  std::size_t event_limit = 50;
  std::vector<std::string> checks;
  std::string chrome_out;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--metrics") {
      want_metrics = true;
    } else if (a == "--critical") {
      want_critical = true;
    } else if (a == "--events") {
      want_events = true;
      if (i + 1 < argc && argv[i + 1][0] != '-' &&
          !nct::cli::parse_number("trace_dump", "--events", argv[++i], std::size_t{0},
                                  ~std::size_t{0}, event_limit))
        return 2;
    } else if (a == "--check" && i + 1 < argc) {
      checks.emplace_back(argv[++i]);
    } else if (a == "--chrome" && i + 1 < argc) {
      chrome_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  nct::obs::TraceSink trace;
  try {
    trace = nct::obs::read_binary_trace_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_dump: %s: %s\n", path.c_str(), e.what());
    return 1;
  }

  print_summary(trace);

  if (want_events) {
    std::printf("\n");
    print_events(trace, event_limit);
  }

  if (want_metrics) {
    std::printf("\n%s", nct::obs::collect_metrics(trace).format().c_str());
  }

  if (want_critical) {
    std::printf("\n");
    for (std::size_t ph = 0; ph < trace.phase_labels().size(); ++ph)
      std::printf("%s",
                  nct::obs::format_critical_path(
                      nct::obs::phase_critical_path(trace, static_cast<std::int32_t>(ph)))
                      .c_str());
  }

  int rc = 0;
  for (const std::string& c : checks) {
    nct::obs::CheckResult r;
    if (c == "edge-disjoint") {
      r = nct::obs::check_edge_disjoint(trace);
    } else if (c == "one-port") {
      r = nct::obs::check_one_port(trace);
    } else {
      std::fprintf(stderr, "trace_dump: unknown check '%s'\n", c.c_str());
      return 2;
    }
    std::printf("check %-14s %s%s%s\n", c.c_str(), r.ok ? "OK" : "FAIL",
                r.ok ? "" : ": ", r.ok ? "" : r.message.c_str());
    if (!r.ok) rc = 1;
  }

  if (!chrome_out.empty()) {
    if (!nct::obs::write_chrome_trace_file(trace, chrome_out)) {
      std::fprintf(stderr, "trace_dump: cannot write %s\n", chrome_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", chrome_out.c_str());
  }
  return rc;
}
