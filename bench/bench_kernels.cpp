// Kernel pipelines on the comm substrate: hyper-systolic matmul and the
// bit-packed Boolean matmul, naive composition vs the per-stage tuned
// one.
//
// Series 1 ("Kernel compositions: naive vs tuned") is the gated table —
// simulated pipeline seconds per (kernel, machine, matrix) point, with
// the composition tuned stage by stage through kernels::tune_pipeline.
// Both columns are deterministic simulation outputs, so the regression
// gate can run tight:
//
//   check_bench_regression.py BENCH_bench_kernels.json BENCH_kernels.json \
//       --table "Kernel compositions" --columns speedup:+ tuned_ms:-
//
// Series 2 reports the wall-clock tuning cost (cold search vs the
// per-stage plan-cache hit) — informational, not gated: it depends on
// host load.  Every search is a cell of one bench::measure() schedule
// (measure.hpp); the cold cell's last search also fills series 1.
//
// The google-benchmark cases measure the wall-clock cost of one full
// verified pipeline run (plan + execute + per-stage placement checks)
// on the compiled data-mode and timing paths.
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/boolmm.hpp"
#include "kernels/matmul.hpp"
#include "kernels/tune.hpp"
#include "topology/topology.hpp"
#include "tune/cache.hpp"

namespace {

using namespace nct;

struct Point {
  std::string label;    ///< row key: kernel@machine/matrix
  std::string kernel;   ///< "hsmm" | "boolmm"
  sim::MachineParams machine;
  cube::word matrix = 0;
};

std::vector<Point> series_points() {
  std::vector<Point> pts;
  pts.push_back({"hsmm@ipsc3/32", "hsmm", sim::MachineParams::ipsc(3), 32});
  pts.push_back({"hsmm@ipsc4/64", "hsmm", sim::MachineParams::ipsc(4), 64});
  pts.push_back({"hsmm@cm4/64", "hsmm", sim::MachineParams::cm(4), 64});
  pts.push_back({"hsmm@torus4x2/32", "hsmm",
                 sim::MachineParams::on_topology(topo::torus_id({4, 2}),
                                                 sim::MachineParams::ipsc(0)),
                 32});
  pts.push_back({"boolmm@ipsc3/256", "boolmm", sim::MachineParams::ipsc(3), 256});
  pts.push_back({"boolmm@ipsc4/512", "boolmm", sim::MachineParams::ipsc(4), 512});
  return pts;
}

/// One point's kernel, with a cache each for its cold and its warm
/// per-stage searches.
struct PointCells {
  const Point& point;
  std::unique_ptr<kernels::HsmmKernel> hsmm;
  std::unique_ptr<kernels::BoolmmKernel> boolmm;
  const kernels::Pipeline* pipeline = nullptr;
  sim::Memory entry;
  tune::PlanCache cold_cache, warm_cache;
  kernels::TunedComposition tuned;  ///< the last cold search.

  explicit PointCells(const Point& p) : point(p) {
    if (p.kernel == "hsmm") {
      kernels::HsmmOptions opt;
      opt.nm = p.matrix;
      hsmm = std::make_unique<kernels::HsmmKernel>(p.machine, opt);
      pipeline = &hsmm->pipeline();
      entry = hsmm->initial_memory();
    } else {
      kernels::BoolmmOptions opt;
      opt.nb = p.matrix;
      boolmm = std::make_unique<kernels::BoolmmKernel>(p.machine, opt);
      pipeline = &boolmm->pipeline();
      entry = boolmm->initial_memory();
    }
  }

  kernels::TunedComposition tune(tune::PlanCache& cache) const {
    kernels::KernelTuneOptions topt;
    topt.cache = &cache;
    topt.jobs = bench::sweep_jobs();
    return kernels::tune_pipeline(*pipeline, entry, topt);
  }
};

void print_series() {
  const std::vector<Point> pts = series_points();
  // std::deque: the cells point into the elements.
  std::deque<PointCells> points;
  for (const Point& p : pts) points.emplace_back(p);

  std::vector<std::function<void()>> cells;
  for (PointCells& p : points) {
    cells.push_back([&p] {
      p.cold_cache.clear();
      p.tuned = p.tune(p.cold_cache);
    });
    cells.push_back([&p] { p.tune(p.warm_cache); });
  }
  const std::vector<bench::Timing> timings = bench::measure(cells);

  {
    bench::Table t({"point", "stages", "comm", "naive_ms", "tuned_ms", "speedup"});
    for (const PointCells& p : points) {
      const double naive_s = p.tuned.naive_seconds, tuned_s = p.tuned.tuned_seconds;
      t.row({p.point.label, std::to_string(p.pipeline->stages().size()),
             std::to_string(p.tuned.stages.size()), bench::ms(naive_s), bench::ms(tuned_s),
             bench::num(tuned_s > 0 ? naive_s / tuned_s : 0, 2)});
    }
    t.print("Kernel compositions: naive vs tuned (simulated comm seconds)");
  }

  {
    bench::Table t({"point", "cold_tune_ms", "warm_tune_ms", "speedup"});
    const bench::Timing* cell = timings.data();
    for (const PointCells& p : points) {
      const double cold_s = cell[0].time().median, warm_s = cell[1].time().median;
      cell += 2;
      t.row({p.point.label, bench::ms(cold_s), bench::ms(warm_s),
             bench::num(warm_s > 0 ? cold_s / warm_s : 0, 1)});
    }
    t.print("Kernel tuning cost: cold per-stage search vs plan-cache hit (wall clock)");
  }
}

void BM_hsmm_pipeline_verified(benchmark::State& state) {
  kernels::HsmmOptions opt;
  opt.nm = static_cast<cube::word>(state.range(0));
  const kernels::HsmmKernel kernel(sim::MachineParams::ipsc(3), opt);
  const sim::Memory entry = kernel.initial_memory();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.pipeline().run(entry).seconds);
  }
}
BENCHMARK(BM_hsmm_pipeline_verified)->Arg(16)->Arg(32);

void BM_hsmm_pipeline_timing_path(benchmark::State& state) {
  kernels::HsmmOptions opt;
  opt.nm = static_cast<cube::word>(state.range(0));
  const kernels::HsmmKernel kernel(sim::MachineParams::ipsc(3), opt);
  const sim::Memory entry = kernel.initial_memory();
  kernels::PipelineOptions popt;
  popt.path = kernels::ExecPath::timing;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.pipeline().run(entry, popt).seconds);
  }
}
BENCHMARK(BM_hsmm_pipeline_timing_path)->Arg(16)->Arg(32);

void BM_boolmm_pipeline_verified(benchmark::State& state) {
  kernels::BoolmmOptions opt;
  opt.nb = static_cast<cube::word>(state.range(0));
  const kernels::BoolmmKernel kernel(sim::MachineParams::ipsc(2), opt);
  const sim::Memory entry = kernel.initial_memory();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.pipeline().run(entry).seconds);
  }
}
BENCHMARK(BM_boolmm_pipeline_verified)->Arg(128)->Arg(256);

}  // namespace

NCT_BENCH_MAIN(print_series)
