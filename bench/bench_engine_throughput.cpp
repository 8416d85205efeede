// Engine throughput microbenchmark: the regression anchor for the
// simulation core.  Measures, on fixed workloads (2D stepwise
// transpose, iPSC 8-cube, 2^14 elements; CM direct transpose, 10- and
// 12-cube; iPSC MPT with multi-packet sends, 2^18 elements):
//
//   * Plan          - planner cost (program construction);
//   * Compile       - sim::compile() flattening + validation cost;
//   * CompiledData  - Engine::run(CompiledProgram, Memory) (data mode;
//                     Engine::run(Program, Memory) is Compile + this);
//   * TimingOnly    - Engine::run_timing(CompiledProgram);
//   * TimingBatch   - Engine::run_timing_batch over 32 runs, reusing one
//                     BatchScratch (zero steady-state allocations;
//                     threads per --jobs).
//
// The execution cases report packets/s (router packets traversing their
// full route per wall-clock second).  A second table reports the
// tuner's cold-search latency (no cache; build + compile + batched
// timing measurement of the whole candidate space).  Both tables' cells
// are timed in one bench::measure() schedule (measure.hpp).  Run with
// --json to record the series tables into BENCH_<binary>.json.
#include <deque>
#include <functional>

#include "bench_common.hpp"
#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "sim/batch.hpp"
#include "tune/tuner.hpp"

namespace {

using namespace nct;

struct Workload {
  const char* name;
  sim::MachineParams machine;
  sim::Program program;
  sim::Memory init;
};

Workload make_ipsc_stepwise() {
  const int n = 8, half = 4, lg = 14;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  const auto machine = sim::MachineParams::ipsc(n);
  auto prog = core::transpose_2d_stepwise(before, after, machine);
  auto init = core::transpose_initial_memory(before, n, prog.local_slots);
  return {"ipsc8_stepwise_2^14", machine, std::move(prog), std::move(init)};
}

Workload make_cm_direct() {
  const int n = 10, half = 5, lg = 14;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto machine = sim::MachineParams::cm(n);
  auto prog = core::transpose_2d_direct(before, after, machine);
  auto init = core::transpose_initial_memory(before, n, prog.local_slots);
  return {"cm10_direct_2^14", machine, std::move(prog), std::move(init)};
}

Workload make_cm12_direct() {
  const int n = 12, half = 6, lg = 16;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto machine = sim::MachineParams::cm(n);
  auto prog = core::transpose_2d_direct(before, after, machine);
  auto init = core::transpose_initial_memory(before, n, prog.local_slots);
  return {"cm12_direct_2^16", machine, std::move(prog), std::move(init)};
}

/// iPSC MPT with 1024-element packets: 4096 bytes against B_m = 1024, so
/// every send is a 4-packet message (exercises the multi-packet charge
/// path that the other workloads never hit).
Workload make_ipsc_mpt_multipacket() {
  const int n = 8, half = 4, lg = 18;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  const auto machine = sim::MachineParams::ipsc(n);
  core::Transpose2DOptions opt;
  opt.packet_elements = 1024;
  auto prog = core::transpose_mpt(before, after, machine, opt);
  auto init = core::transpose_initial_memory(before, n, prog.local_slots);
  return {"ipsc8_mpt_2^18_multipkt", machine, std::move(prog), std::move(init)};
}

constexpr int kWorkloads = 4;

Workload& workload(int which) {
  static Workload w0 = make_ipsc_stepwise();
  static Workload w1 = make_cm_direct();
  static Workload w2 = make_cm12_direct();
  static Workload w3 = make_ipsc_mpt_multipacket();
  switch (which) {
    case 1: return w1;
    case 2: return w2;
    case 3: return w3;
    default: return w0;
  }
}

sim::Program plan_workload(int which) {
  switch (which) {
    case 1: return make_cm_direct().program;
    case 2: return make_cm12_direct().program;
    case 3: return make_ipsc_mpt_multipacket().program;
    default: return make_ipsc_stepwise().program;
  }
}

void BM_Plan(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_workload(which));
  }
}
BENCHMARK(BM_Plan)->DenseRange(0, kWorkloads - 1);

void BM_Compile(benchmark::State& state) {
  const Workload& w = workload(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::compile(w.program, w.machine).total_sends());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(sim::compile(w.program, w.machine).total_sends()));
}
BENCHMARK(BM_Compile)->DenseRange(0, kWorkloads - 1);

void BM_CompiledData(benchmark::State& state) {
  const Workload& w = workload(static_cast<int>(state.range(0)));
  const auto compiled = sim::compile(w.program, w.machine);
  const sim::Engine engine(w.machine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(compiled, w.init).total_time);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bench::total_packets(compiled)));
}
BENCHMARK(BM_CompiledData)->DenseRange(0, kWorkloads - 1);

void BM_TimingOnly(benchmark::State& state) {
  const Workload& w = workload(static_cast<int>(state.range(0)));
  const auto compiled = sim::compile(w.program, w.machine);
  const sim::Engine engine(w.machine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_timing(compiled).total_time);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bench::total_packets(compiled)));
}
BENCHMARK(BM_TimingOnly)->DenseRange(0, kWorkloads - 1);

void BM_TimingBatch(benchmark::State& state) {
  const Workload& w = workload(static_cast<int>(state.range(0)));
  const auto compiled = sim::compile(w.program, w.machine);
  const sim::Engine engine(w.machine);
  constexpr std::size_t kBatch = 32;
  const std::vector<const sim::CompiledProgram*> programs(kBatch, &compiled);
  sim::BatchScratch batch;  // reused: steady state allocates nothing
  const int jobs = bench::sweep_jobs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_timing_batch(programs, batch, jobs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch) *
                          static_cast<int64_t>(bench::total_packets(compiled)));
}
BENCHMARK(BM_TimingBatch)->DenseRange(0, kWorkloads - 1);

/// One engine workload's timed state; cells hold references into it.
struct EngineCells {
  const Workload& w;
  sim::Engine engine;
  sim::CompiledProgram compiled;
  std::vector<const sim::CompiledProgram*> batch_programs;
  sim::BatchScratch batch;
};

void print_series() {
  const int jobs = bench::sweep_jobs();
  constexpr std::size_t kBatch = 32;

  // std::deque: cells and batch_programs point into the elements.
  std::deque<EngineCells> engines;
  for (int which = 0; which < kWorkloads; ++which) {
    const Workload& w = workload(which);
    engines.push_back({w, sim::Engine(w.machine), sim::compile(w.program, w.machine), {}, {}});
    engines.back().batch_programs.assign(kBatch, &engines.back().compiled);
  }

  std::vector<std::function<void()>> cells;
  for (EngineCells& e : engines) {
    cells.push_back([&e] { sim::compile(e.w.program, e.w.machine); });
    cells.push_back([&e] { e.engine.run(e.compiled, e.w.init); });
    cells.push_back([&e] { e.engine.run_timing(e.compiled); });
    cells.push_back([&e, jobs] { e.engine.run_timing_batch(e.batch_programs, e.batch, jobs); });
  }
  // Cold tuner search: no cache, so the full candidate space is built,
  // compiled and measured through run_timing_batch on --jobs workers.
  std::vector<std::string> spec_pairs;
  std::vector<tune::TunedPlan> plans(2);  // the last search of each
  for (const int which : {0, 1}) {
    const int n = which ? 10 : 8;
    const int half = n / 2;
    const int lg = 14;
    const cube::MatrixShape s{lg / 2, lg - lg / 2};
    const auto before =
        which ? cube::PartitionSpec::two_dim_cyclic(s, half, half)
              : cube::PartitionSpec::two_dim_consecutive(s, half, half);
    const auto after =
        which ? cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half)
              : cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
    const auto machine =
        which ? sim::MachineParams::cm(n) : sim::MachineParams::ipsc(n);
    tune::TuneOptions topt;
    topt.jobs = jobs;
    spec_pairs.push_back(std::string(machine.name) + std::to_string(n) + "_2^" +
                         std::to_string(lg));
    cells.push_back([before, after, machine, topt, &plan = plans[which]] {
      plan = tune::tune_transpose(before, after, machine, topt);
    });
  }
  const std::vector<bench::Timing> timings = bench::measure(cells);

  bench::Table t({"workload", "packets", "compile_ms", "compiled_data_ms", "timing_only_ms",
                  "timing_pkts_per_s", "timing_pkts_per_s_iqr", "batch32_ms",
                  "batch32_pkts_per_s", "batch32_pkts_per_s_iqr"});
  const bench::Timing* cell = timings.data();
  for (const EngineCells& e : engines) {
    const double packets = static_cast<double>(bench::total_packets(e.compiled));
    const bench::Spread timing = cell[2].rate(packets);
    const bench::Spread batched = cell[3].rate(packets * kBatch);
    t.row({e.w.name, bench::num(packets, 0), bench::ms(cell[0].time().median),
           bench::ms(cell[1].time().median), bench::ms(cell[2].time().median),
           bench::num(timing.median, 0), bench::num(timing.iqr, 0),
           bench::ms(cell[3].time().median), bench::num(batched.median, 0),
           bench::num(batched.iqr, 0)});
    cell += 4;
  }
  t.print("Engine throughput: compile vs execution paths (wall-clock on this host)");

  bench::Table tt({"spec_pair", "candidates", "cold_search_ms", "winner"});
  for (std::size_t i = 0; i < plans.size(); ++i) {
    tt.row({spec_pairs[i], std::to_string(plans[i].programs_measured),
            bench::ms(cell[i].time().median), plans[i].choice.describe()});
  }
  tt.print("Tuner cold-search latency (no cache; batched measurement)");
}

}  // namespace

NCT_BENCH_MAIN(print_series)
