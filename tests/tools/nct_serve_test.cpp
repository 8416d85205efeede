// Regression tests for the nct_serve CLI: a small closed-loop workload
// serves every request, and malformed or out-of-range numeric flags exit
// 2 with a diagnostic naming the flag.  The binary path is injected by
// CMake as NCT_SERVE_BIN.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "tool_run.hpp"

namespace nct {
namespace {

ToolRun run_tool(const std::string& args) { return run_binary(NCT_SERVE_BIN, args); }

void expect_usage_error(const std::string& args, const std::string& expect) {
  nct::expect_usage_error(NCT_SERVE_BIN, args, expect);
}

TEST(NctServeCli, ServesASmallWorkload) {
  const auto r =
      run_tool("--requests 64 --epochs 2 --lg-min 8 --lg-max 8 --jobs 1 --tune-jobs 1");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("workload: 64 requests, 2 epochs"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("totals: 64 served"), std::string::npos) << r.output;
  // The compiled-program cache line: every lookup is a hit or a miss,
  // and a repeated stream hits.
  const std::size_t at = r.output.find("programs: ");
  ASSERT_NE(at, std::string::npos) << r.output;
  unsigned long long hits = 0, misses = 0, evictions = 0, bytes = 0;
  double ratio = -1.0;
  ASSERT_EQ(std::sscanf(r.output.c_str() + at,
                        "programs: %llu hits / %llu misses, hit ratio %lf, %llu evictions, "
                        "%llu bytes cached",
                        &hits, &misses, &ratio, &evictions, &bytes),
            5)
      << r.output;
  EXPECT_GT(hits, 0u) << r.output;
  EXPECT_GT(misses, 0u) << r.output;
  EXPECT_NEAR(ratio, static_cast<double>(hits) / static_cast<double>(hits + misses), 5e-4)
      << r.output;
  EXPECT_EQ(evictions, 0u) << r.output;
  EXPECT_GT(bytes, 0u) << r.output;
}

TEST(NctServeCli, UnknownOptionIsUsageExit2) {
  expect_usage_error("--frobnicate", "unknown option '--frobnicate'");
  expect_usage_error("--requests", "--requests needs a value");
}

TEST(NctServeCli, RejectsMalformedNumbers) {
  expect_usage_error("--requests x", "--requests expects an integer");
  expect_usage_error("--epochs 2x", "--epochs expects an integer");
  expect_usage_error("--tenants ''", "--tenants expects an integer");
  expect_usage_error("--seed -1", "--seed expects an integer");
  expect_usage_error("--tenant-share half", "--tenant-share expects a number in [0, 1]");
  expect_usage_error("--tenant-share nan", "--tenant-share expects a number");
}

TEST(NctServeCli, RejectsOutOfRangeNumbers) {
  expect_usage_error("--requests 0", "--requests expects an integer in [1, ");
  expect_usage_error("--epochs 0", "--epochs expects");
  expect_usage_error("--jobs 1000", "--jobs expects an integer in [0, 256]");
  expect_usage_error("--tune-jobs -1", "--tune-jobs expects");
  expect_usage_error("--capacity 0", "--capacity expects");
  expect_usage_error("--tenant-share 1.5", "--tenant-share expects");
  expect_usage_error("--lg-min 1", "--lg-min expects an integer in [2, 20]");
  expect_usage_error("--lg-max 40", "--lg-max expects an integer in [2, 20]");
  expect_usage_error("--lg-min 9 --lg-max 8", "--lg-min 9 exceeds --lg-max 8");
}

}  // namespace
}  // namespace nct
