// Autotuner overhead and decisions.
//
// Series 1: cold-tune vs cache-hit latency — wall-clock cost of a full
// plan search (every finalist planned + measured on the timing engine)
// against a warm PlanCache hit (deterministic re-plan, zero engine
// runs), per machine model and cube size.  Each cell is the median of
// at least five searches (more for fast problems, up to a quarter of a
// second of searching), each on a fresh cache.
//
// Series 2: the tuned Fig 19 decision table — which of the 1D / 2D
// layouts the measured search picks per cube size, with the winner's
// simulated time.
//
// --json writes BENCH_bench_tuner.json; CI gates its "Tuner latency"
// cold_ms column (lower is better, tolerance 0.50) against the
// checked-in BENCH_tune.json with tools/check_bench_regression.py.
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tune/cache.hpp"
#include "tune/layouts.hpp"
#include "tune/tuner.hpp"

namespace {

using namespace nct;

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct LatencyRow {
  std::string problem;  ///< unique row key for the regression gate.
  std::string machine;
  int n = 0;
  int lg = 0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  std::size_t cold_measured = 0;
  std::size_t warm_measured = 0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

LatencyRow tune_latency(const sim::MachineParams& m, int lg) {
  constexpr int kMinRepeats = 5, kMaxRepeats = 200;
  constexpr double kMinSeconds = 0.25;
  const tune::SpecPair pair = tune::fig_layout_2d(lg, m.n);
  LatencyRow row{m.name + std::to_string(m.n) + "_2^" + std::to_string(lg), m.name, m.n, lg,
                 0, 0, 0, 0};
  std::vector<double> cold_s, warm_s;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < kMaxRepeats && (r < kMinRepeats || wall_seconds_since(start) < kMinSeconds);
       ++r) {
    tune::PlanCache cache;
    tune::TuneOptions opt;
    opt.cache = &cache;
    opt.jobs = bench::sweep_jobs();
    const tune::Tuner tuner(m, opt);

    auto t0 = std::chrono::steady_clock::now();
    const tune::TunedPlan cold = tuner.tune(pair.first, pair.second);
    cold_s.push_back(wall_seconds_since(t0));
    row.cold_measured = cold.programs_measured;

    t0 = std::chrono::steady_clock::now();
    const tune::TunedPlan warm = tuner.tune(pair.first, pair.second);
    warm_s.push_back(wall_seconds_since(t0));
    row.warm_measured = warm.programs_measured;
  }
  row.cold_s = median(cold_s);
  row.warm_s = median(warm_s);
  return row;
}

void print_series() {
  {
    std::vector<LatencyRow> rows;
    for (const int lg : {10, 14, 18}) {
      rows.push_back(tune_latency(sim::MachineParams::ipsc(4), lg));
      rows.push_back(tune_latency(sim::MachineParams::cm(6), lg));
    }
    // Many nodes with a small block and packet sizes down to one
    // element: the shape where per-node pipelined builds add up.
    rows.push_back(tune_latency(sim::MachineParams::cm(10), 16));
    bench::Table t({"problem", "machine", "n", "lg2(PQ)", "cold_ms", "warm_ms", "speedup",
                    "cold_measured", "warm_measured"});
    for (const LatencyRow& r : rows) {
      t.row({r.problem, r.machine, std::to_string(r.n), std::to_string(r.lg), bench::ms(r.cold_s),
             bench::ms(r.warm_s), bench::num(r.warm_s > 0 ? r.cold_s / r.warm_s : 0, 1),
             std::to_string(r.cold_measured), std::to_string(r.warm_measured)});
    }
    t.print("Tuner latency: cold search vs plan-cache hit");
  }

  {
    bench::Table t({"machine", "n", "layout_winner", "winner_ms", "decision"});
    for (const std::string& name : {std::string("ipsc"), std::string("cm")}) {
      for (const int n : {2, 4, 6}) {
        const sim::MachineParams m =
            name == "ipsc" ? sim::MachineParams::ipsc(n) : sim::MachineParams::cm(n);
        tune::TuneOptions opt;
        opt.jobs = bench::sweep_jobs();
        const auto p1 = tune::fig_layout_1d(14, n);
        const auto p2 = tune::fig_layout_2d(14, n);
        const tune::TunedPlan t1 = tune::tune_transpose(p1.first, p1.second, m, opt);
        const tune::TunedPlan t2 = tune::tune_transpose(p2.first, p2.second, m, opt);
        const bool two_d = t2.measured_seconds < t1.measured_seconds;
        t.row({name, std::to_string(n), two_d ? "2D" : "1D",
               bench::ms(two_d ? t2.measured_seconds : t1.measured_seconds),
               (two_d ? t2 : t1).choice.describe()});
      }
    }
    t.print("Tuned Fig 19 decisions: 1D vs 2D layout winner, 2^14 elements");
  }
}

void BM_tune_cold(benchmark::State& state) {
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  const tune::SpecPair pair = tune::fig_layout_2d(static_cast<int>(state.range(0)), 4);
  const tune::Tuner tuner(m, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.tune(pair.first, pair.second).measured_seconds);
  }
}
BENCHMARK(BM_tune_cold)->Arg(10)->Arg(14);

void BM_tune_cache_hit(benchmark::State& state) {
  const sim::MachineParams m = sim::MachineParams::ipsc(4);
  const tune::SpecPair pair = tune::fig_layout_2d(static_cast<int>(state.range(0)), 4);
  tune::PlanCache cache;
  tune::TuneOptions opt;
  opt.cache = &cache;
  const tune::Tuner tuner(m, opt);
  tuner.tune(pair.first, pair.second);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.tune(pair.first, pair.second).measured_seconds);
  }
}
BENCHMARK(BM_tune_cache_hit)->Arg(10)->Arg(14);

}  // namespace

int main(int argc, char** argv) {
  nct::bench::parse_sweep_args(argc, argv);
  if (nct::bench::sweep_options().trace_path.empty()) {
    nct::bench::sweep_options().trace_path = nct::bench::trace_path_for(argv[0]);
  }
  print_series();
  if (nct::bench::sweep_options().json) {
    nct::bench::write_recorded_json(nct::bench::json_path_for(argv[0]));
  }
  return nct::bench::run_benchmarks(argc, argv);
}
