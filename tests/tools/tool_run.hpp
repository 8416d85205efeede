// Runs a tool binary through the shell and captures its exit status and
// combined stdout/stderr, for the CLI regression tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace nct {

struct ToolRun {
  int exit_code = -1;  ///< -1 when the tool did not exit normally.
  std::string output;  ///< stdout + stderr interleaved.
};

inline ToolRun run_binary(const std::string& binary, const std::string& args) {
  const std::string cmd = binary + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  ToolRun r;
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) r.output.append(buf, got);
  const int status = ::pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// `binary args` must exit with the usage status 2 and print `expect`.
inline void expect_usage_error(const std::string& binary, const std::string& args,
                               const std::string& expect) {
  const ToolRun r = run_binary(binary, args);
  EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
  EXPECT_NE(r.output.find(expect), std::string::npos) << args << "\n" << r.output;
}

}  // namespace nct
