// Wall-clock measurement for the gated benches: the one place they read
// the clock.  measure() gives each cell (a closure) one untimed warm-up
// call, then runs kRounds rounds; in round r every cell takes its sample
// r before any cell takes sample r + 1.  A slow stretch of a shared host
// thus lands on one round of every cell, and each cell's median over
// the rounds drops it.  A sample repeats its cell's call until it has
// run for at least kMinSampleSeconds, so short calls are timed in bulk.
// Benches print each cell's median and, beside every gated median, the
// interquartile range (IQR) of the same samples.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace nct::bench {

inline constexpr int kRounds = 5;
inline constexpr double kMinSampleSeconds = 0.02;

/// q-quantile (0 <= q <= 1) of `v`, interpolated linearly between the
/// two nearest order statistics; 0 for an empty vector.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median and interquartile range of a set of samples.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;  ///< third quartile minus first quartile.
};

inline Spread spread(const std::vector<double>& v) {
  return {quantile(v, 0.5), quantile(v, 0.75) - quantile(v, 0.25)};
}

/// A cell's seconds per call, one sample per round, in round order.
struct Timing {
  std::vector<double> seconds;

  Spread time() const { return spread(seconds); }

  /// Work per second, for a call that does `work_per_call` units.
  Spread rate(double work_per_call) const {
    std::vector<double> v;
    for (const double s : seconds) v.push_back(work_per_call / s);
    return spread(v);
  }
};

/// Time `cells` round-robin (see the file comment); one Timing per cell,
/// in cell order.
inline std::vector<Timing> measure(const std::vector<std::function<void()>>& cells) {
  using clock = std::chrono::steady_clock;
  for (const auto& cell : cells) cell();
  std::vector<Timing> timings(cells.size());
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const auto t0 = clock::now();
      double elapsed = 0.0;
      std::int64_t calls = 0;
      do {
        cells[c]();
        ++calls;
        elapsed = std::chrono::duration<double>(clock::now() - t0).count();
      } while (elapsed < kMinSampleSeconds);
      timings[c].seconds.push_back(elapsed / static_cast<double>(calls));
    }
  }
  return timings;
}

}  // namespace nct::bench
