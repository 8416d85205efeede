// Autotuner overhead and decisions.
//
// Series 1: cold-tune vs cache-hit latency — wall-clock cost of a full
// plan search (every finalist planned + measured on the timing engine)
// against a warm PlanCache hit (deterministic re-plan, zero engine
// runs), per machine model and cube size, timed by bench::measure()
// (measure.hpp).  A cold search clears its cache on every call; a warm
// one hits the cache its warm-up call filled.
//
// Series 2: the tuned Fig 19 decision table — which of the 1D / 2D
// layouts the measured search picks per cube size, with the winner's
// simulated time.
//
// --json writes BENCH_bench_tuner.json; CI gates its "Tuner latency"
// cold_ms column (lower is better, tolerance 0.50) against the
// checked-in BENCH_tune.json with tools/check_bench_regression.py.
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tune/cache.hpp"
#include "tune/layouts.hpp"
#include "tune/tuner.hpp"

namespace {

using namespace nct;

tune::TuneOptions cached_options(tune::PlanCache* cache) {
  tune::TuneOptions opt;
  opt.cache = cache;
  opt.jobs = bench::sweep_jobs();
  return opt;
}

/// One problem's cold and warm searches, each on its own cache.
struct LatencyCells {
  sim::MachineParams machine;
  int lg = 0;
  tune::SpecPair pair = tune::fig_layout_2d(lg, machine.n);
  tune::PlanCache cold_cache, warm_cache;
  tune::Tuner cold{machine, cached_options(&cold_cache)};
  tune::Tuner warm{machine, cached_options(&warm_cache)};
  std::size_t cold_measured = 0, warm_measured = 0;

  LatencyCells(const sim::MachineParams& m, int lg_) : machine(m), lg(lg_) {}
};

void print_series() {
  {
    // std::deque: the cells and tuners point into the elements.
    std::deque<LatencyCells> problems;
    for (const int lg : {10, 14, 18}) {
      problems.emplace_back(sim::MachineParams::ipsc(4), lg);
      problems.emplace_back(sim::MachineParams::cm(6), lg);
    }
    // Many nodes with a small block and packet sizes down to one
    // element: the shape where per-node pipelined builds add up.
    problems.emplace_back(sim::MachineParams::cm(10), 16);

    std::vector<std::function<void()>> cells;
    for (LatencyCells& p : problems) {
      cells.push_back([&p] {
        p.cold_cache.clear();
        p.cold_measured = p.cold.tune(p.pair.first, p.pair.second).programs_measured;
      });
      cells.push_back(
          [&p] { p.warm_measured = p.warm.tune(p.pair.first, p.pair.second).programs_measured; });
    }
    const std::vector<bench::Timing> timings = bench::measure(cells);

    bench::Table t({"problem", "machine", "n", "lg2(PQ)", "cold_ms", "cold_ms_iqr", "warm_ms",
                    "speedup", "cold_measured", "warm_measured"});
    const bench::Timing* cell = timings.data();
    for (const LatencyCells& p : problems) {
      const bench::Spread cold = cell[0].time();
      const double warm_s = cell[1].time().median;
      cell += 2;
      t.row({p.machine.name + std::to_string(p.machine.n) + "_2^" + std::to_string(p.lg),
             p.machine.name, std::to_string(p.machine.n), std::to_string(p.lg),
             bench::ms(cold.median), bench::ms(cold.iqr), bench::ms(warm_s),
             bench::num(warm_s > 0 ? cold.median / warm_s : 0, 1),
             std::to_string(p.cold_measured), std::to_string(p.warm_measured)});
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

NCT_BENCH_MAIN(print_series)
