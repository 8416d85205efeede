// Shared helpers for the figure/table reproduction benches.
//
// Each bench binary first prints the data series of the paper figure or
// table it regenerates (simulated times under the corresponding machine
// model), then runs its google-benchmark cases (wall-clock cost of
// planning + simulating on this host).
//
// Driver flags (stripped before google-benchmark sees argv):
//   --jobs=N        worker threads for the series sweeps (default: all cores)
//   --json          also write the printed tables to BENCH_<binary>.json
//   --trace[=PATH]  write a Chrome/Perfetto trace of the bench's
//                   representative run (default TRACE_<binary>.json);
//                   benches opt in via simulate_traced()
//
// The series sweeps run each (parameter point -> simulated time) task on
// a thread pool via parallel_sweep(); results are stored by task index,
// so output ordering is deterministic regardless of scheduling.  Tasks
// use the compiled timing-only engine path (simulated_time): one
// compiled program per task, no payload movement — data correctness of
// every planner is established separately by the test suite's data-mode
// runs.  Timing-only execution reuses thread-local RunScratch/RunResult
// arenas, so a sweep's steady state performs no simulation-side heap
// allocations.  The gated benches time host work only through
// measure() (measure.hpp).
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "sim/model.hpp"
#include "sim/program.hpp"
#include "sim/scratch.hpp"

namespace nct::bench {

struct SweepOptions {
  int jobs = 0;  ///< 0 = hardware concurrency.
  bool json = false;
  bool trace = false;        ///< dump the representative run's Chrome trace.
  std::string trace_path;    ///< --trace=PATH override (else TRACE_<binary>.json).
};

inline SweepOptions& sweep_options() {
  static SweepOptions opts;
  return opts;
}

inline int sweep_jobs() {
  const int j = sweep_options().jobs;
  if (j > 0) return j;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

/// Strip the driver flags (--jobs=N, --jobs N, --json) from argv so the
/// remaining arguments can go to google-benchmark untouched.
inline void parse_sweep_args(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--json") == 0) {
      sweep_options().json = true;
    } else if (std::strcmp(a, "--trace") == 0) {
      sweep_options().trace = true;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      sweep_options().trace = true;
      sweep_options().trace_path = a + 8;
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
      sweep_options().jobs = std::atoi(a + 7);
    } else if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      sweep_options().jobs = std::atoi(argv[++i]);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

/// Run a program from an initial memory, returning the full result
/// (data mode: compile + run; moves real payloads).
inline sim::RunResult simulate(const sim::Program& prog, const sim::MachineParams& machine,
                               sim::Memory initial) {
  return sim::Engine(machine).run(prog, std::move(initial));
}

/// Simulated time via the compiled timing-only fast path: the program is
/// validated and flattened once, then executed without touching any
/// memory image.  Bit-identical to simulate(...).total_time.  The run
/// executes into thread-local scratch and result arenas, so repeated
/// calls from a sweep worker allocate only inside compile().
inline double simulated_time(const sim::Program& prog, const sim::MachineParams& machine) {
  static thread_local sim::RunScratch scratch;
  static thread_local sim::RunResult result;
  sim::Engine(machine).run_timing(sim::compile(prog, machine), scratch, result);
  return result.total_time;
}

/// Router packets injected by a compiled program (each traverses its
/// route).
inline std::size_t total_packets(const sim::CompiledProgram& compiled) {
  std::size_t packets = 0;
  for (const auto& s : compiled.send_ops()) {
    packets += compiled.machine().packets_for(
        static_cast<std::size_t>(s.count) *
        static_cast<std::size_t>(compiled.machine().element_bytes));
  }
  return packets;
}

/// Metrics blocks recorded for the JSON dump (one per traced run).
struct RecordedMetrics {
  std::string title;
  obs::MetricsReport report;
};

inline std::vector<RecordedMetrics>& recorded_metrics() {
  static std::vector<RecordedMetrics> blocks;
  return blocks;
}

/// Timing-only run of a representative configuration with event tracing:
/// derives a metrics block for the --json dump and, under --trace, writes
/// the first traced run as Chrome/Perfetto JSON.  Call from the main
/// thread (the metrics/trace stores are not synchronized).
inline sim::RunResult simulate_traced(const sim::Program& prog,
                                      const sim::MachineParams& machine,
                                      const std::string& title) {
  obs::TraceSink sink;
  sim::EngineOptions opts;
  opts.trace = &sink;
  sim::RunResult res =
      sim::Engine(machine, opts).run_timing(sim::compile(prog, machine));
  recorded_metrics().push_back(RecordedMetrics{title, obs::collect_metrics(sink)});
  if (sweep_options().trace) {
    static bool written = false;
    if (!written) {
      written = true;
      const std::string& path = sweep_options().trace_path;
      if (obs::write_chrome_trace_file(sink, path)) {
        std::printf("trace: wrote %s (%s)\n", path.c_str(), title.c_str());
      } else {
        std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
      }
    }
  }
  return res;
}

/// Evaluate fn(0) .. fn(count-1) on a worker pool of `jobs` threads
/// (default: --jobs / all cores).  Results are returned in index order,
/// so printed tables are deterministic; the first worker exception is
/// rethrown on the calling thread.
template <class Fn>
auto parallel_sweep(std::size_t count, Fn fn, int jobs = 0)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> results(count);
  if (jobs <= 0) jobs = sweep_jobs();
  if (static_cast<std::size_t>(jobs) > count) jobs = static_cast<int>(count);

  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  const auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs) - 1);
  for (int t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
  if (err) std::rethrow_exception(err);
  return results;
}

/// A printed table, recorded for the optional JSON dump.
struct RecordedTable {
  std::string title;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

inline std::vector<RecordedTable>& recorded_tables() {
  static std::vector<RecordedTable> tables;
  return tables;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Write every recorded table as JSON: {"tables": [{title, headers,
/// rows}, ...], "metrics": [{title, report}, ...]}.  Cell values stay
/// strings (they are already formatted for the figure being reproduced);
/// metrics blocks come from simulate_traced() runs.
inline void write_recorded_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"tables\": [\n");
  const auto& tables = recorded_tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    std::fprintf(f, "    {\n      \"title\": \"%s\",\n      \"headers\": [",
                 json_escape(tables[t].title).c_str());
    for (std::size_t c = 0; c < tables[t].headers.size(); ++c)
      std::fprintf(f, "%s\"%s\"", c ? ", " : "", json_escape(tables[t].headers[c]).c_str());
    std::fprintf(f, "],\n      \"rows\": [\n");
    for (std::size_t r = 0; r < tables[t].rows.size(); ++r) {
      std::fprintf(f, "        [");
      for (std::size_t c = 0; c < tables[t].rows[r].size(); ++c)
        std::fprintf(f, "%s\"%s\"", c ? ", " : "",
                     json_escape(tables[t].rows[r][c]).c_str());
      std::fprintf(f, "]%s\n", r + 1 < tables[t].rows.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", t + 1 < tables.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"metrics\": [\n");
  const auto& blocks = recorded_metrics();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::fprintf(f, "    {\"title\": \"%s\", \"report\": %s}%s\n",
                 json_escape(blocks[b].title).c_str(), blocks[b].report.to_json().c_str(),
                 b + 1 < blocks.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Run the google-benchmark cases.  The simulations are deterministic
/// (no data-dependent branching, tiny run-to-run variance), so the
/// default 0.5s-per-case minimum measuring time only pads the binary's
/// wall clock; shrink it to 0.02s unless the caller passed an explicit
/// --benchmark_min_time.
inline int run_benchmarks(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time", 20) == 0) has_min_time = true;
  }
  static char default_min_time[] = "--benchmark_min_time=0.02";
  if (!has_min_time) args.push_back(default_min_time);
  int bargc = static_cast<int>(args.size());
  ::benchmark::Initialize(&bargc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

/// BENCH_<basename>.json next to the current working directory.
inline std::string json_path_for(const char* argv0) {
  std::string base = argv0;
  const auto pos = base.find_last_of('/');
  if (pos != std::string::npos) base = base.substr(pos + 1);
  return "BENCH_" + base + ".json";
}

/// Default Chrome trace output path (see --trace).
inline std::string trace_path_for(const char* argv0) {
  std::string base = argv0;
  const auto pos = base.find_last_of('/');
  if (pos != std::string::npos) base = base.substr(pos + 1);
  return "TRACE_" + base + ".json";
}

/// Column-aligned table printing.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void print(const char* title) const {
    recorded_tables().push_back(RecordedTable{title, headers_, rows_});
    std::printf("\n=== %s ===\n", title);
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], r[c].size());
      }
    }
    const auto line = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      }
      std::printf("\n");
    };
    line(headers_);
    std::string rule;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      rule += std::string(widths[c], '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

inline std::string us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", seconds * 1e6);
  return buf;
}

inline std::string num(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace nct::bench

/// Boilerplate main: parse driver flags, print the figure series (in
/// parallel), optionally dump JSON, then run benchmarks.
#define NCT_BENCH_MAIN(print_series_fn)                              \
  int main(int argc, char** argv) {                                  \
    ::nct::bench::parse_sweep_args(argc, argv);                      \
    if (::nct::bench::sweep_options().trace_path.empty()) {          \
      ::nct::bench::sweep_options().trace_path =                     \
          ::nct::bench::trace_path_for(argv[0]);                     \
    }                                                                \
    print_series_fn();                                               \
    if (::nct::bench::sweep_options().json) {                        \
      ::nct::bench::write_recorded_json(                             \
          ::nct::bench::json_path_for(argv[0]));                     \
    }                                                                \
    return ::nct::bench::run_benchmarks(argc, argv);                 \
  }
