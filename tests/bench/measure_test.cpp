// bench::measure() (bench/measure.hpp), the timer behind every gated
// bench: round-robin order, the per-sample floor, and the statistics.
#include "measure.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace {

using nct::bench::kMinSampleSeconds;
using nct::bench::kRounds;

struct Call {
  std::size_t cell;
  std::chrono::steady_clock::time_point start, end;
};

TEST(BenchMeasure, RoundRobinSamplesOfAtLeastTheFloor) {
  std::vector<Call> log;
  const auto cell = [&log](std::size_t id, std::chrono::microseconds nap) {
    return [&log, id, nap] {
      const auto start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(nap);
      log.push_back({id, start, std::chrono::steady_clock::now()});
    };
  };
  const std::vector<nct::bench::Timing> timings = nct::bench::measure(
      {cell(0, std::chrono::microseconds(7000)), cell(1, std::chrono::microseconds(1000))});
  ASSERT_EQ(timings.size(), 2u);

  // Split the call log into runs of one cell.  Expected: one warm-up
  // call per cell, then per round one run per cell, in cell order.
  std::vector<std::vector<Call>> runs;
  for (const Call& c : log) {
    if (runs.empty() || runs.back().front().cell != c.cell) runs.emplace_back();
    runs.back().push_back(c);
  }
  ASSERT_EQ(runs.size(), 2u + 2u * kRounds);
  for (std::size_t k = 0; k < runs.size(); ++k) EXPECT_EQ(runs[k].front().cell, k % 2) << k;
  EXPECT_EQ(runs[0].size(), 1u);
  EXPECT_EQ(runs[1].size(), 1u);

  for (std::size_t cell_id = 0; cell_id < 2; ++cell_id) {
    ASSERT_EQ(timings[cell_id].seconds.size(), static_cast<std::size_t>(kRounds));
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::vector<Call>& run = runs[2 + 2 * r + cell_id];
      EXPECT_GE(run.size(), 1u);
      const double span =
          std::chrono::duration<double>(run.back().end - run.front().start).count();
      // The sample's clock also covers the loop's own overhead around
      // the calls, so allow the calls' span a sliver under the floor.
      EXPECT_GE(span, kMinSampleSeconds - 5e-4) << "cell " << cell_id << " round " << r;
      // The recorded per-call time is the whole sample's over its calls.
      const double sample = timings[cell_id].seconds[r] * static_cast<double>(run.size());
      EXPECT_GE(sample, kMinSampleSeconds * (1 - 1e-9));
      EXPECT_GE(sample * (1 + 1e-9), span);
    }
  }
}

TEST(BenchMeasure, QuantileInterpolatesBetweenOrderStatistics) {
  using nct::bench::quantile;
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({4.0}, 0.99), 4.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
}

TEST(BenchMeasure, SpreadIsMedianAndInterquartileRange) {
  const nct::bench::Spread s = nct::bench::spread({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.iqr, 2.0);
}

TEST(BenchMeasure, TimingReportsPerCallTimeAndRate) {
  const nct::bench::Timing t{{1.0, 2.0, 4.0, 5.0, 10.0}};
  const nct::bench::Spread time = t.time();
  EXPECT_DOUBLE_EQ(time.median, 4.0);
  EXPECT_DOUBLE_EQ(time.iqr, 3.0);
  // Rates for 10 units per call: 10, 5, 2.5, 2, 1.
  const nct::bench::Spread rate = t.rate(10.0);
  EXPECT_DOUBLE_EQ(rate.median, 2.5);
  EXPECT_DOUBLE_EQ(rate.iqr, 3.0);
}

}  // namespace
