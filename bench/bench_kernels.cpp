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
// host load.
//
// The google-benchmark cases measure the wall-clock cost of one full
// verified pipeline run (plan + execute + per-stage placement checks)
// on the compiled data-mode and timing paths.
#include <chrono>
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

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

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

struct KernelHandle {
  std::unique_ptr<kernels::HsmmKernel> hsmm;
  std::unique_ptr<kernels::BoolmmKernel> boolmm;
  const kernels::Pipeline* pipeline = nullptr;
  sim::Memory entry;
};

KernelHandle make_kernel(const Point& p) {
  KernelHandle h;
  if (p.kernel == "hsmm") {
    kernels::HsmmOptions opt;
    opt.nm = p.matrix;
    h.hsmm = std::make_unique<kernels::HsmmKernel>(p.machine, opt);
    h.pipeline = &h.hsmm->pipeline();
    h.entry = h.hsmm->initial_memory();
  } else {
    kernels::BoolmmOptions opt;
    opt.nb = p.matrix;
    h.boolmm = std::make_unique<kernels::BoolmmKernel>(p.machine, opt);
    h.pipeline = &h.boolmm->pipeline();
    h.entry = h.boolmm->initial_memory();
  }
  return h;
}

struct Row {
  std::string label;
  std::size_t stages = 0;
  std::size_t comm_stages = 0;
  double naive_s = 0.0;
  double tuned_s = 0.0;
  double cold_tune_wall_s = 0.0;
  double warm_tune_wall_s = 0.0;
};

Row measure_point(const Point& p) {
  const KernelHandle h = make_kernel(p);
  Row row;
  row.label = p.label;
  row.stages = h.pipeline->stages().size();

  tune::PlanCache cache;
  kernels::KernelTuneOptions topt;
  topt.cache = &cache;
  topt.jobs = bench::sweep_jobs();

  auto t0 = std::chrono::steady_clock::now();
  const kernels::TunedComposition tuned =
      kernels::tune_pipeline(*h.pipeline, h.entry, topt);
  row.cold_tune_wall_s = wall_seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  (void)kernels::tune_pipeline(*h.pipeline, h.entry, topt);
  row.warm_tune_wall_s = wall_seconds_since(t0);

  row.comm_stages = tuned.stages.size();
  row.naive_s = tuned.naive_seconds;
  row.tuned_s = tuned.tuned_seconds;
  return row;
}

void print_series() {
  const std::vector<Point> pts = series_points();
  const std::vector<Row> rows =
      bench::parallel_sweep(pts.size(), [&](std::size_t i) { return measure_point(pts[i]); });

  {
    bench::Table t({"point", "stages", "comm", "naive_ms", "tuned_ms", "speedup"});
    for (const Row& r : rows) {
      t.row({r.label, std::to_string(r.stages), std::to_string(r.comm_stages),
             bench::ms(r.naive_s), bench::ms(r.tuned_s),
             bench::num(r.tuned_s > 0 ? r.naive_s / r.tuned_s : 0, 2)});
    }
    t.print("Kernel compositions: naive vs tuned (simulated comm seconds)");
  }

  {
    bench::Table t({"point", "cold_tune_ms", "warm_tune_ms", "speedup"});
    for (const Row& r : rows) {
      t.row({r.label, bench::ms(r.cold_tune_wall_s), bench::ms(r.warm_tune_wall_s),
             bench::num(r.warm_tune_wall_s > 0 ? r.cold_tune_wall_s / r.warm_tune_wall_s : 0,
                        1)});
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

int main(int argc, char** argv) {
  nct::bench::parse_sweep_args(argc, argv);
  print_series();
  if (nct::bench::sweep_options().json) {
    nct::bench::write_recorded_json(nct::bench::json_path_for(argv[0]));
  }
  return nct::bench::run_benchmarks(argc, argv);
}
