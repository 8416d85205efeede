// Sharded-engine benchmark: the million-node acceptance run.  Builds
// the two 20-cube (1,048,576-node) transpose workloads end-to-end --
// the one-port SPT stepwise exchange (iPSC model) and the n-port MPT
// direct transpose (CM model) -- compiles each once, then executes the
// compiled program through shard::ShardEngine at 1/2/4/8 shards.  Only
// the store-and-forward SPT rows open lookahead windows: ShardEngine
// runs every cut-through program (the CM model's MPT rows) as the plain
// sim::Engine's run, so those rows time the single-thread engine at
// every shard count and report 0 windows.
//
// Two tables:
//   * "Sharded engine throughput" (gated in CI via
//     check_bench_regression.py --columns packets_per_s:+): the
//     shards=1 rows only.  CI runners are shared VMs whose vCPU count
//     and load vary, so the multi-shard rows time the runner as much
//     as the code; gating them would gate noise.  Its compiled_mb
//     (CompiledProgram::heap_bytes()) and scratch_mb (the ShardScratch's
//     heap_bytes() after every shard count has run on it) columns are
//     deterministic and gated on their own, at a tight tolerance.
//   * "Shard scaling detail": every shard count with the window /
//     parallel-share / imbalance stats, so the scaling shape is
//     recorded even where it is not gated.
//
// Plan, compile and the run at every shard count, for both workloads,
// are the cells of one bench::measure() schedule (measure.hpp).  The
// bench also re-checks the subsystem's core contract on the real
// 20-cube: the simulated time at every shard count must be
// bit-identical to the shards=1 run, else it aborts with a nonzero
// exit.  Run with --json to write BENCH_<binary>.json.
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>

#include "bench_common.hpp"
#include "core/transpose2d.hpp"
#include "shard/engine.hpp"
#include "sim/compile.hpp"
#include "topology/partition.hpp"
#include "topology/topology.hpp"

namespace {

using namespace nct;

struct Workload {
  const char* name;
  sim::MachineParams machine;
  sim::Program program;
};

/// One-port SPT path: Section 8.2.1 stepwise exchange on the iPSC
/// model.  Ten single-dimension exchange phases; with the subcube
/// partitioner every exchange stays shard-local, so the sharded run is
/// embarrassingly parallel (parallel_share = 100%).
Workload make_spt20() {
  const int n = 20, half = 10, lg = 20;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  auto machine = sim::MachineParams::ipsc(n);
  machine.port = sim::PortModel::one_port;
  auto prog = core::transpose_2d_stepwise(before, after, machine);
  return {"spt20_stepwise", machine, std::move(prog)};
}

/// n-port MPT path: one direct message per processor pair on the CM
/// model (cut-through).  A cut-through send reserves a route across the
/// whole cube in one event, so no window could run it shard-locally:
/// ShardEngine runs it as the plain engine's run at every shard count.
Workload make_mpt20() {
  const int n = 20, half = 10, lg = 20;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto machine = sim::MachineParams::cm(n);
  auto prog = core::transpose_2d_direct(before, after, machine);
  return {"mpt20_direct", machine, std::move(prog)};
}

/// One shard count's run; `out` and `stats` keep the last call's.
struct RunCell {
  std::uint32_t shards;
  topo::Partition part;
  sim::RunResult out;
  shard::ShardStats stats;
};

/// One workload, planned and compiled once for its run cells.
struct WorkloadCells {
  Workload (*make)();
  Workload w = make();
  sim::CompiledProgram compiled = sim::compile(w.program, w.machine);
  shard::ShardEngine engine{w.machine};
  shard::ShardScratch scratch;
  std::vector<RunCell> runs;
};

void print_series() {
  // std::deque: the cells point into the elements.
  std::deque<WorkloadCells> workloads;
  for (Workload (*make)() : {make_spt20, make_mpt20}) {
    WorkloadCells& c = workloads.emplace_back(make);
    const auto topology = topo::make_topology(c.w.machine.topology, c.w.machine.n);
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u})
      c.runs.push_back({shards, topo::make_partition(*topology, shards), {}, {}});
  }

  std::vector<std::function<void()>> cells;
  for (WorkloadCells& c : workloads) {
    cells.push_back([&c] { c.make(); });
    cells.push_back([&c] { sim::compile(c.w.program, c.w.machine); });
    for (RunCell& r : c.runs) {
      cells.push_back(
          [&c, &r] { c.engine.run_timing(c.compiled, r.part, c.scratch, r.out, &r.stats); });
    }
  }
  const std::vector<bench::Timing> timings = bench::measure(cells);

  bench::Table gate({"workload", "packets", "plan_ms", "plan_ms_iqr", "compile_ms",
                     "compile_ms_iqr", "run_ms", "packets_per_s", "packets_per_s_iqr",
                     "compiled_mb", "scratch_mb"});
  bench::Table detail({"row", "shards", "windows", "parallel_share",
                       "imbalance", "run_ms", "packets_per_s"});
  const bench::Timing* cell = timings.data();
  for (const WorkloadCells& c : workloads) {
    const double packets = static_cast<double>(bench::total_packets(c.compiled));
    const bench::Spread plan = cell[0].time();
    const bench::Spread compile = cell[1].time();
    cell += 2;
    const bench::Timing& serial = *cell;
    const double reference = c.runs.front().out.total_time;
    for (const RunCell& r : c.runs) {
      if (r.out.total_time != reference) {
        std::fprintf(stderr,
                     "FATAL: %s shards=%u total_time %.17g != shards=1 %.17g\n",
                     c.w.name, r.shards, r.out.total_time, reference);
        std::exit(1);
      }
      const bench::Timing& run = *cell++;
      detail.row({std::string(c.w.name) + "/s" + std::to_string(r.shards),
                  std::to_string(r.stats.shards), std::to_string(r.stats.windows),
                  bench::num(r.stats.parallel_fraction() * 100.0, 1),
                  bench::num(r.stats.imbalance(), 3), bench::ms(run.time().median),
                  bench::num(run.rate(packets).median, 0)});
    }
    constexpr double kMiB = 1024.0 * 1024.0;
    const bench::Spread rate = serial.rate(packets);
    gate.row({c.w.name, bench::num(packets, 0), bench::ms(plan.median), bench::ms(plan.iqr),
              bench::ms(compile.median), bench::ms(compile.iqr),
              bench::ms(serial.time().median), bench::num(rate.median, 0),
              bench::num(rate.iqr, 0),
              bench::num(static_cast<double>(c.compiled.heap_bytes()) / kMiB, 2),
              bench::num(static_cast<double>(c.scratch.heap_bytes()) / kMiB, 2)});
  }

  gate.print("Sharded engine throughput: 20-cube transpose end-to-end");
  detail.print("Shard scaling detail: simulated time bit-identical across shard counts");
}

/// google-benchmark cases run a 12-cube so the default min-time keeps
/// the binary quick; the 20-cube rows above are the acceptance run.
struct SmallCase {
  sim::MachineParams machine;
  sim::CompiledProgram compiled;
  std::shared_ptr<const topo::Topology> topology;
};

const SmallCase& small_case() {
  static const SmallCase c = [] {
    const int n = 12, half = 6, lg = 14;
    const cube::MatrixShape s{lg / 2, lg - lg / 2};
    const auto before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
    const auto after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
    auto machine = sim::MachineParams::ipsc(n);
    machine.port = sim::PortModel::one_port;
    const auto prog = core::transpose_2d_stepwise(before, after, machine);
    return SmallCase{machine, sim::compile(prog, machine),
                     topo::make_topology(machine.topology, machine.n)};
  }();
  return c;
}

void BM_ShardedTiming(benchmark::State& state) {
  const SmallCase& c = small_case();
  const auto part = topo::make_partition(*c.topology,
                                         static_cast<std::uint32_t>(state.range(0)));
  const shard::ShardEngine engine(c.machine);
  shard::ShardScratch scratch;
  sim::RunResult out;
  for (auto _ : state) {
    engine.run_timing(c.compiled, part, scratch, out);
    benchmark::DoNotOptimize(out.total_time);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bench::total_packets(c.compiled)));
}
BENCHMARK(BM_ShardedTiming)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

NCT_BENCH_MAIN(print_series)
