// The three perfbench workloads.  Each runs in its own process, sets
// itself up several times (setup_s is the median), measures items
// for `args.seconds`, checks every output, and fills the report with
// the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run).
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_cube18_transpose(const Args& args, Report& report, Spans& spans);
void run_serve_stream(const Args& args, Report& report, Spans& spans);
void run_tune_cold(const Args& args, Report& report, Spans& spans);

}  // namespace perfbench
