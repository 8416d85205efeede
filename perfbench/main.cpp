// perfbench: host wall-clock benchmark of the plan -> compile -> run
// path (cube18_transpose, tune_cold) and the request -> respond path
// (serve_stream).  Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints one human-readable line per metric and then, as the last line
// of stdout, one JSON object {correct, attempted, failed, metrics}.
// Exits 1 when any output check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(v);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cube18_transpose|serve_stream|tune_cold "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // Shard routing is pinned here, never sized from the host: the tuner
  // and the server read these knobs, the cube18 items pass the same
  // values through shard::AutoPolicy.
  setenv("NCT_SHARD_MIN_NODES", "16384", 1);
  setenv("NCT_SHARD_THREADS", "2", 1);

  perfbench::Report report(args->trace);
  perfbench::Spans spans;
  try {
    if (args->workload == "cube18_transpose") {
      perfbench::run_cube18_transpose(*args, report, spans);
    } else if (args->workload == "serve_stream") {
      perfbench::run_serve_stream(*args, report, spans);
    } else if (args->workload == "tune_cold") {
      perfbench::run_tune_cold(*args, report, spans);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args->workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args->workload.c_str(), e.what());
    return 1;
  }
  report.print(*args);
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
