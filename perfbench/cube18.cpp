// cube18_transpose: 262,144-node transposes alternating the paper's two
// families -- the one-port SPT stepwise exchange on the iPSC model and
// the n-port MPT direct transpose on the CM model.  Each item plans
// (core), compiles (sim) and runs through shard::run_timing_batch_auto
// on two shards with one reused AutoScratch, as the tuner and the
// server do.  Plan, compile and run each take a sizeable share of an
// item, so all three layers show in latency_ms; this is the only
// workload large enough (>= 2^14 nodes) to reach the shard layer.
#include <array>
#include <cstdio>
#include <limits>
#include <string>

#include "core/transpose2d.hpp"
#include "shard/auto.hpp"
#include "shard/engine.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "topology/partition.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace nct;

constexpr int kCube = 18;
constexpr std::uint32_t kShards = 2;

shard::AutoPolicy policy() {
  shard::AutoPolicy p;
  p.min_nodes = cube::word{1} << 14;
  p.shards = kShards;
  return p;
}

struct Family {
  const char* tag = "";   ///< "spt" or "mpt": suffix of the per-family metrics.
  bool stepwise = false;  ///< SPT stepwise exchange (one-port iPSC), else MPT direct (CM).
  const char* layout = "";
  sim::MachineParams machine;
  cube::PartitionSpec before;
  cube::PartitionSpec after;
  std::string span_item, span_plan, span_compile, span_run;
  // Filled by verify(): the single-thread reference and program sizes.
  double reference = 0.0;
  std::size_t packets = 0;
  std::size_t active_links = 0;
};

/// The seed picks the processor-address layout (consecutive or cyclic
/// row/column bits) of each family; with one element per node both give
/// the same message count and size, so the host work is seed-neutral
/// while the routes differ.
Family make_family(bool spt, Rng& rng) {
  const int half = kCube / 2;
  const cube::MatrixShape s{half, kCube - half};
  const bool cyclic = rng.below(2) == 1;
  const auto spec = [&](const cube::MatrixShape& shape) {
    return cyclic ? cube::PartitionSpec::two_dim_cyclic(shape, half, half)
                  : cube::PartitionSpec::two_dim_consecutive(shape, half, half);
  };
  Family f;
  f.tag = spt ? "spt" : "mpt";
  f.stepwise = spt;
  f.layout = cyclic ? "cyclic" : "consecutive";
  f.machine = spt ? sim::MachineParams::ipsc(kCube) : sim::MachineParams::cm(kCube);
  f.before = spec(s);
  f.after = spec(s.transposed());
  const std::string t = f.tag;
  f.span_item = "item." + t;
  f.span_plan = "core.plan." + t;
  f.span_compile = "sim.compile." + t;
  f.span_run = "shard.run." + t;
  return f;
}

sim::Program plan(const Family& f) {
  return f.stepwise ? core::transpose_2d_stepwise(f.before, f.after, f.machine)
                    : core::transpose_2d_direct(f.before, f.after, f.machine);
}

struct State {
  std::array<Family, 2> families;  ///< in the seed's alternation order.
  shard::AutoScratch scratch;
  sim::BatchScratch batch;
};

struct Item {
  double seconds = 0.0;
  double simulated = std::numeric_limits<double>::quiet_NaN();
};

/// The item's run stage: the compiled program on two shards, through the
/// reused scratch.  NaN when the run failed.
double run_sharded(const Family& f, State& st, const sim::CompiledProgram& compiled) {
  const sim::Engine engine(f.machine);
  const sim::CompiledProgram* const progs[] = {&compiled};
  if (shard::run_timing_batch_auto(engine, progs, st.batch, 1, st.scratch, policy()) != 1)
    return std::numeric_limits<double>::quiet_NaN();
  return st.batch.runs[0].result.total_time;
}

/// One transpose: plan -> compile -> sharded run.  The program and its
/// compiled form are freed inside the item, as a caller's would be.
Item run_item(const Family& f, State& st, Spans& spans) {
  Item out;
  const double t0 = now_s();
  {
    const auto item = spans.scope(f.span_item.c_str());
    sim::Program program;
    {
      const auto s = spans.scope(f.span_plan.c_str());
      program = plan(f);
    }
    sim::CompiledProgram compiled;
    {
      const auto s = spans.scope(f.span_compile.c_str());
      compiled = sim::compile(program, f.machine);
    }
    const auto s = spans.scope(f.span_run.c_str());
    out.simulated = run_sharded(f, st, compiled);
  }
  out.seconds = now_s() - t0;
  return out;
}

std::unique_ptr<State> make_state(const Args& args) {
  auto st = std::make_unique<State>();
  Rng rng{args.seed};
  const bool spt_first = rng.below(2) == 0;
  st->families = {make_family(spt_first, rng), make_family(!spt_first, rng)};
  Spans off;
  for (const Family& f : st->families) run_item(f, *st, off);  // warm-up item of each family
  return st;
}

/// Per family: the single-thread reference time every item must match,
/// the program's size, and (traced) the live-heap growth of each stage
/// and the shard-layer detail -- window stats, the 1-shard baseline, and
/// a fresh ShardScratch's cold and warm runs beside the reused scratch
/// of the items.  The heap is sampled here, on an untimed item, so its
/// cost lands in no span.
void verify(State& st, Report& rep, bool traced) {
  for (Family& f : st.families) {
    const std::string t = f.tag;
    double heap = traced ? heap_mb() : 0.0;
    const sim::Program program = plan(f);
    if (traced) rep.layer("mem.plan_mb." + t, heap_mb() - heap, "MiB"), heap = heap_mb();
    const sim::CompiledProgram compiled = sim::compile(program, f.machine);
    if (traced) rep.layer("mem.compile_mb." + t, heap_mb() - heap, "MiB"), heap = heap_mb();
    const double sharded = run_sharded(f, st, compiled);
    if (traced) rep.layer("mem.run_mb." + t, heap_mb() - heap, "MiB");
    f.packets = total_packets(compiled);
    f.active_links = compiled.active_links().size();
    const double r0 = now_s();
    f.reference = sim::Engine(f.machine).run_timing(compiled).total_time;
    const double single_ms = (now_s() - r0) * 1e3;
    rep.expect(sharded == f.reference, "cube18 " + t + ": sharded run differs");
    if (!traced) continue;

    const shard::ShardEngine engine(f.machine);
    const auto part = topo::make_partition(compiled.topology(), kShards);
    sim::RunResult out;
    shard::ShardStats stats;
    engine.run_timing(compiled, part, st.scratch.shard, out, &stats);
    rep.expect(out.total_time == f.reference, "cube18 " + t + ": sharded stats run differs");
    shard::ShardScratch fresh;
    double fresh_ms[2] = {0.0, 0.0};
    for (double& ms : fresh_ms) {
      const double s0 = now_s();
      engine.run_timing(compiled, part, fresh, out);
      ms = (now_s() - s0) * 1e3;
      rep.expect(out.total_time == f.reference, "cube18 " + t + ": fresh-scratch run differs");
    }
    rep.layer("shard.windows." + t, static_cast<double>(stats.windows), "count");
    rep.layer("shard.parallel_share." + t, stats.parallel_fraction(), "ratio");
    rep.layer("shard.imbalance." + t, stats.imbalance(), "ratio");
    rep.layer("shard.run_1shard_ms." + t, single_ms, "ms");
    rep.layer("shard.run_fresh_ms." + t, fresh_ms[0], "ms");
    rep.layer("shard.run_fresh_warm_ms." + t, fresh_ms[1], "ms");
  }
}

}  // namespace

void run_cube18_transpose(const Args& args, Report& rep, Spans& spans) {
  const auto st = timed_setups(3, rep, [&] { return make_state(args); });
  const ThreadSampler threads(args.trace);
  verify(*st, rep, args.trace);

  // Whole pairs (one item of each family) until the deadline.  A traced
  // run records spans on every other pair, so the untraced pairs between
  // them give the tracing overhead.
  std::array<std::vector<double>, 2> plain, traced;
  std::vector<double> untraced;  ///< every untraced item's time.
  const double deadline = now_s() + args.seconds;
  for (int pair = 0; pair < 2 || now_s() < deadline; ++pair) {
    spans.on = args.trace && pair % 2 == 1;
    for (std::size_t k = 0; k < 2; ++k) {
      const Family& f = st->families[k];
      ++rep.attempted;
      Item it;
      try {
        it = run_item(f, *st, spans);
      } catch (const std::exception& e) {
        rep.fail(std::string("cube18 ") + f.tag + ": " + e.what());
        continue;
      }
      if (!rep.expect(it.simulated == f.reference,
                      std::string("cube18 ") + f.tag + ": total_time " +
                          std::to_string(it.simulated) + " != single-thread reference " +
                          std::to_string(f.reference)))
        continue;
      (spans.on ? traced : plain)[k].push_back(it.seconds);
      if (!spans.on) untraced.push_back(it.seconds);
    }
  }
  spans.on = false;

  double packets = 0.0;
  for (std::size_t k = 0; k < 2; ++k)
    packets += static_cast<double>(st->families[k].packets) *
               static_cast<double>(plain[k].size());
  // The two families differ in cost, so the typical item is the mean of
  // the per-family medians (the median of the mix would jump between
  // the two clusters).
  rep.e2e("latency_ms", (median(plain[0]) + median(plain[1])) * 0.5e3, "ms");
  rep.e2e("items_per_s", static_cast<double>(untraced.size()) / sum(untraced), "1/s");
  rep.e2e("packets_per_s", packets / sum(untraced), "1/s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  for (std::size_t k = 0; k < 2; ++k)
    std::printf("cube18_transpose: %zu %s items (%s layout), simulated %.17g s each\n",
                plain[k].size(), st->families[k].tag, st->families[k].layout,
                st->families[k].reference);

  double overhead = 0.0;
  for (std::size_t k = 0; k < 2; ++k) {
    const Family& f = st->families[k];
    const std::string t = f.tag;
    overhead += (median(traced[k]) - median(plain[k])) * 0.5e3;
    rep.layer("core.plan_ms." + t, median(spans.durations_ms(f.span_plan)), "ms");
    rep.layer("sim.compile_ms." + t, median(spans.durations_ms(f.span_compile)), "ms");
    rep.layer("shard.run_ms." + t, median(spans.durations_ms(f.span_run)), "ms");
    rep.layer("item.self_ms." + t, median(spans.self_ms(f.span_item)), "ms");
    rep.layer("sim.packets." + t, static_cast<double>(f.packets), "count");
    rep.layer("sim.active_links." + t, static_cast<double>(f.active_links), "count");
  }
  rep.layer("trace.overhead_ms", overhead, "ms");
  rep.layer("shard.threads", kShards, "count");
  rep.layer("threads.peak", threads.peak(), "count");
}

}  // namespace perfbench
