// Regression tests for the trace_dump tool: corrupt or truncated trace
// files must produce a nonzero exit status and a clear diagnostic (not a
// garbage summary), and faulted traces must get a degraded-mode digest.
// The tool binary path is injected by CMake as TRACE_DUMP_BIN.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/trace.hpp"
#include "tool_run.hpp"

namespace nct {
namespace {

ToolRun run_tool(const std::string& args) { return run_binary(TRACE_DUMP_BIN, args); }

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "trace_dump_" + name;
}

/// A tiny but complete trace: one phase, one hop, makespan 2.0.
obs::TraceSink healthy_trace() {
  obs::TraceSink sink;
  sink.begin_run(2);
  sink.phase_begin(0, "exchange", 0.0);
  sink.hop(0, 0, 1, 0, 0, 8, 0.0, 2.0);
  sink.phase_end(0, 2.0);
  return sink;
}

TEST(TraceDump, HealthyTraceSummarizesWithoutFaultDigest) {
  const auto path = temp_path("healthy.bin");
  ASSERT_TRUE(obs::write_binary_trace_file(healthy_trace(), path));
  const auto r = run_tool(path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cube:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("events:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("faults:"), std::string::npos) << r.output;
}

TEST(TraceDump, FaultedTraceGetsADegradedModeDigest) {
  auto sink = healthy_trace();
  sink.link_down(0, 0, 1, 0, 0, 0.0, 1.0);
  sink.retry(0, 0, 1, 0, 0, 1.0);
  sink.reroute(0, 2, 3, 1, 0.5);
  const auto path = temp_path("faulted.bin");
  ASSERT_TRUE(obs::write_binary_trace_file(sink, path));
  const auto r = run_tool(path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("faults:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("rerouted sends"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("retries"), std::string::npos) << r.output;
}

TEST(TraceDump, TruncatedTraceFailsWithClearMessage) {
  const auto path = temp_path("truncated.bin");
  ASSERT_TRUE(obs::write_binary_trace_file(healthy_trace(), path));
  const auto full = std::filesystem::file_size(path);
  ASSERT_GT(full, 16u);
  std::filesystem::resize_file(path, full - 10);
  const auto r = run_tool(path);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("trace_dump:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("truncated"), std::string::npos) << r.output;
}

TEST(TraceDump, BadMagicFailsWithClearMessage) {
  const auto path = temp_path("notatrace.bin");
  std::ofstream(path, std::ios::binary) << "definitely not a trace file";
  const auto r = run_tool(path);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("bad magic"), std::string::npos) << r.output;
}

TEST(TraceDump, TrailingGarbageFailsWithClearMessage) {
  const auto path = temp_path("trailing.bin");
  ASSERT_TRUE(obs::write_binary_trace_file(healthy_trace(), path));
  std::ofstream(path, std::ios::binary | std::ios::app) << "extra";
  const auto r = run_tool(path);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("trailing bytes"), std::string::npos) << r.output;
}

TEST(TraceDump, MissingFileFailsWithClearMessage) {
  const auto r = run_tool(temp_path("does_not_exist.bin"));
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST(TraceDump, UsageErrorExitsWithStatusTwo) {
  const auto r = run_tool("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(TraceDump, EventCountMustBeANumber) {
  const auto path = temp_path("events.bin");
  ASSERT_TRUE(obs::write_binary_trace_file(healthy_trace(), path));
  EXPECT_EQ(run_tool(path + " --events 1").exit_code, 0);
  for (const char* bad : {"1x", "99999999999999999999999"})
    expect_usage_error(TRACE_DUMP_BIN, path + " --events " + bad, "--events expects an integer");
}

}  // namespace
}  // namespace nct
