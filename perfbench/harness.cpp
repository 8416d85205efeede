#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <numeric>
#include <sys/resource.h>

#include "sim/compile.hpp"

namespace perfbench {

double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") {
      int n = 0;
      in >> n;
      return n;
    }
  }
  return 0;
}

std::size_t total_packets(const nct::sim::CompiledProgram& compiled) {
  const nct::sim::MachineParams& m = compiled.machine();
  std::size_t packets = 0;
  for (const auto& s : compiled.send_ops())
    packets += m.packets_for(static_cast<std::size_t>(s.count) *
                             static_cast<std::size_t>(m.element_bytes));
  return packets;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Spans::Scope::Scope(Spans* spans, const char* name) : spans_(spans) {
  if (spans_ == nullptr) return;
  const int parent = spans_->open_.empty() ? -1 : spans_->open_.back();
  spans_->open_.push_back(static_cast<int>(spans_->spans_.size()));
  spans_->spans_.push_back(Span{name, parent, now_s(), 0.0});
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[static_cast<std::size_t>(spans_->open_.back())].end = now_s();
  spans_->open_.pop_back();
}

std::vector<double> Spans::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back((s.end - s.start) * 1e3);
  return out;
}

std::vector<double> Spans::self_ms(std::string_view name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name)
      out.push_back((spans_[i].end - spans_[i].start - child[i]) * 1e3);
  return out;
}

void Report::fail(const std::string& why) {
  ++failed;
  if (++reported_ <= 10) std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", why.c_str());
}

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), std::isfinite(value) ? value : 0.0,
                            std::move(unit)});
}

void Report::print(const Args& args) const {
  std::printf("%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const Metric& m : metrics_)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-28s %16.6f (failed %llu of %llu attempted)\n", "failed_ratio",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

ThreadSampler::ThreadSampler(bool on) {
  if (!on) return;
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const int n = thread_count();
      if (n > peak_.load()) peak_.store(n);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

}  // namespace perfbench
