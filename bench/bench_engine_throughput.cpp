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
// timing measurement of the whole candidate space).  Every cell is the
// median of five samples, each repeating its call for at least 20 ms
// (see stage_seconds).  Run with --json to record the series tables
// into BENCH_<binary>.json.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"
#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
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

/// Router packets injected by the program (each traverses its route).
std::size_t total_packets(const sim::CompiledProgram& compiled) {
  std::size_t packets = 0;
  for (const auto& s : compiled.send_ops()) {
    packets += compiled.machine().packets_for(
        static_cast<std::size_t>(s.count) *
        static_cast<std::size_t>(compiled.machine().element_bytes));
  }
  return packets;
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
                          static_cast<int64_t>(total_packets(compiled)));
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
                          static_cast<int64_t>(total_packets(compiled)));
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
                          static_cast<int64_t>(total_packets(compiled)));
}
BENCHMARK(BM_TimingBatch)->DenseRange(0, kWorkloads - 1);

/// Wall seconds per call of `fn` for the series table.  One timing run
/// of the small workloads lasts 20-50 us, too short to time alone on a
/// shared host, so each sample repeats the call until it has run for
/// at least 20 ms and records the mean per call; the result is the
/// median of `samples` such samples.
template <class Fn>
double stage_seconds(Fn fn, int samples = 5) {
  constexpr double kMinSampleSeconds = 0.02;
  std::vector<double> ts;
  ts.reserve(static_cast<std::size_t>(samples));
  for (int r = 0; r < samples; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    int calls = 0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    } while (elapsed < kMinSampleSeconds);
    ts.push_back(elapsed / calls);
  }
  std::sort(ts.begin(), ts.end());
  return ts[ts.size() / 2];
}

void print_series() {
  const int jobs = bench::sweep_jobs();
  constexpr std::size_t kBatch = 32;
  bench::Table t({"workload", "packets", "compile_ms", "compiled_data_ms", "timing_only_ms", "timing_pkts_per_s",
                  "batch32_ms", "batch32_pkts_per_s"});
  for (int which = 0; which < kWorkloads; ++which) {
    Workload& w = workload(which);
    const sim::Engine engine(w.machine);
    const auto compiled = sim::compile(w.program, w.machine);
    const std::size_t packets = total_packets(compiled);
    const double c = stage_seconds([&] { sim::compile(w.program, w.machine); });
    const double data = stage_seconds([&] { engine.run(compiled, w.init); });
    const double timing = stage_seconds([&] { engine.run_timing(compiled); });
    const std::vector<const sim::CompiledProgram*> programs(kBatch, &compiled);
    sim::BatchScratch batch;
    engine.run_timing_batch(programs, batch, jobs);  // warm the arenas
    const double batched =
        stage_seconds([&] { engine.run_timing_batch(programs, batch, jobs); });
    t.row({w.name, std::to_string(packets), bench::ms(c), bench::ms(data),
           bench::ms(timing),
           bench::num(static_cast<double>(packets) / timing, 0),
           bench::ms(batched),
           bench::num(static_cast<double>(packets * kBatch) / batched, 0)});
  }
  t.print("Engine throughput: compile vs execution paths (wall-clock on this host)");

  // Cold tuner search: no cache, so the full candidate space is built,
  // compiled and measured through run_timing_batch on --jobs workers.
  bench::Table tt({"spec_pair", "candidates", "cold_search_ms", "winner"});
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
    tune::TunedPlan plan;
    const double cold = stage_seconds(
        [&] { plan = tune::tune_transpose(before, after, machine, topt); });
    tt.row({std::string(machine.name) + std::to_string(n) + "_2^" + std::to_string(lg),
            std::to_string(plan.programs_measured), bench::ms(cold),
            plan.choice.describe()});
  }
  tt.print("Tuner cold-search latency (no cache; batched measurement)");
}

}  // namespace

NCT_BENCH_MAIN(print_series)
