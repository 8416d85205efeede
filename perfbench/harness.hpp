// Measurement pieces shared by the perfbench workloads: the wall clock,
// the span recorder of the traced run, order statistics, process memory
// and thread counts, and the result report whose JSON object is the
// benchmark's last line of output.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace nct::sim {
class CompiledProgram;
}

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();

/// Nearest-rank quantile (q in [0, 1]) of the std::vector `v`, which it
/// reorders; 0 when `v` is empty.
template <class Vec>
double quantile(Vec&& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}
template <class Vec>
double median(Vec&& v) {
  return quantile(v, 0.5);
}

double sum(const std::vector<double>& v);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();
/// Bytes malloc currently has handed out, MiB.  Unlike resident size it
/// grows with every live allocation, also when freed pages are reused.
double heap_mb();
/// Threads of this process right now.
int thread_count();

/// Simulated packets a compiled program sends: each send op's message
/// split into the machine's packets.
std::size_t total_packets(const nct::sim::CompiledProgram& compiled);

/// SplitMix64: the benchmark's only source of seeded choices.
struct Rng {
  std::uint64_t state;
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

/// Command line of one benchmark process.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Host-time spans recorded around each layer call of the traced run.
/// The benchmark calls the layers from one thread, so spans nest
/// strictly and a span's children never overlap.  When tracing is off,
/// opening a scope costs one branch.
class Spans {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  class Scope {
   public:
    Scope(Spans* spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
  };

  bool on = false;

  Scope scope(const char* name) { return Scope(on ? this : nullptr, name); }

  /// Durations (ms) of every span called `name`, in recording order.
  std::vector<double> durations_ms(std::string_view name) const;
  /// Self times (ms): each `name` span minus the time its children cover.
  std::vector<double> self_ms(std::string_view name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Correctness tally plus the metrics of one run: the end-to-end
/// metrics of an untraced run or the per-layer metrics of a traced one.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts a failed check (and says why on stderr, first few only).
  void fail(const std::string& why);
  bool expect(bool ok, const std::string& why) {
    if (!ok) fail(why);
    return ok;
  }

  /// Records an end-to-end metric (kept by untraced runs only).
  void e2e(std::string name, double value, std::string unit) {
    if (!traced_) add(std::move(name), value, std::move(unit));
  }
  /// Records a per-layer metric (kept by traced runs only).
  void layer(std::string name, double value, std::string unit) {
    if (traced_) add(std::move(name), value, std::move(unit));
  }
  /// Human-readable lines on stdout, then the JSON object as the last line.
  void print(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  void add(std::string name, double value, std::string unit);

  bool traced_;
  std::vector<Metric> metrics_;
  int reported_ = 0;
};

/// Sets a workload up `count` times (the previous state is freed before
/// the next is made) and reports the median as setup_s.  `make` returns
/// a std::unique_ptr to the workload state; the last one is kept.
template <class Make>
auto timed_setups(int count, Report& report, Make make) -> decltype(make()) {
  decltype(make()) state;
  std::vector<double> times;
  for (int i = 0; i < count; ++i) {
    state.reset();
    const double t0 = now_s();
    state = make();
    times.push_back(now_s() - t0);
  }
  report.e2e("setup_s", median(times), "s");
  return state;
}

/// Polls this process's thread count every millisecond on its own
/// thread when `on`; peak() excludes the sampler itself.  Workloads start
/// it after their set-ups, whose server churn can briefly count a thread
/// that is still exiting.
class ThreadSampler {
 public:
  explicit ThreadSampler(bool on);
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  int peak() const { return peak_.load() - 1; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

}  // namespace perfbench
