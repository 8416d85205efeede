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
//     shards=1 rows only.  CI runners have a single core, so the
//     multi-shard rows measure thread oversubscription, not speedup;
//     gating them would institutionalise noise.  Its compiled_mb
//     (CompiledProgram::heap_bytes()) and scratch_mb (the ShardScratch's
//     heap_bytes() after every shard count has run on it) columns are
//     deterministic and gated on their own, at a tight tolerance.
//   * "Shard scaling detail": every shard count with the window /
//     parallel-share / imbalance stats, so the scaling shape is
//     recorded even where it is not gated.
//
// The bench also re-checks the subsystem's core contract on the real
// 20-cube: the simulated time at every shard count must be
// bit-identical to the shards=1 run, else it aborts with a nonzero
// exit.  Run with --json to write BENCH_<binary>.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>

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

double wall() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

void print_series() {
  bench::Table gate({"workload", "packets", "plan_ms", "compile_ms", "run_ms",
                     "packets_per_s", "compiled_mb", "scratch_mb"});
  bench::Table detail({"row", "shards", "windows", "parallel_share",
                       "imbalance", "run_ms", "packets_per_s"});

  for (int which = 0; which < 2; ++which) {
    const double t0 = wall();
    Workload w = which ? make_mpt20() : make_spt20();
    const double t1 = wall();
    const auto compiled = sim::compile(w.program, w.machine);
    const double t2 = wall();
    const std::size_t packets = total_packets(compiled);
    const auto topology = topo::make_topology(w.machine.topology, w.machine.n);
    const shard::ShardEngine engine(w.machine);
    shard::ShardScratch scratch;

    double reference = 0.0, serial_run = 0.0;
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      const auto part = topo::make_partition(*topology, shards);
      sim::RunResult out;
      shard::ShardStats stats;
      const double r0 = wall();
      engine.run_timing(compiled, part, scratch, out, &stats);
      const double elapsed = wall() - r0;
      if (shards == 1u) {
        reference = out.total_time;
        serial_run = elapsed;
      } else if (out.total_time != reference) {
        std::fprintf(stderr,
                     "FATAL: %s shards=%u total_time %.17g != shards=1 %.17g\n",
                     w.name, shards, out.total_time, reference);
        std::exit(1);
      }
      detail.row({std::string(w.name) + "/s" + std::to_string(shards),
                  std::to_string(stats.shards), std::to_string(stats.windows),
                  bench::num(stats.parallel_fraction() * 100.0, 1),
                  bench::num(stats.imbalance(), 3), bench::ms(elapsed),
                  bench::num(static_cast<double>(packets) / elapsed, 0)});
    }
    constexpr double kMiB = 1024.0 * 1024.0;
    gate.row({w.name, std::to_string(packets), bench::ms(t1 - t0),
              bench::ms(t2 - t1), bench::ms(serial_run),
              bench::num(static_cast<double>(packets) / serial_run, 0),
              bench::num(static_cast<double>(compiled.heap_bytes()) / kMiB, 2),
              bench::num(static_cast<double>(scratch.heap_bytes()) / kMiB, 2)});
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
                          static_cast<int64_t>(total_packets(c.compiled)));
}
BENCHMARK(BM_ShardedTiming)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

NCT_BENCH_MAIN(print_series)
