// Shard-count invariance goldens: the sharded engine must produce
// **bit-identical** results to sim::Engine::run_timing for shard counts
// 1/2/4/8, on every machine model, with faults and event traces (whose
// hop events are the link record) — plus the degenerate cases and the ShardStats contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/transpose1d.hpp"
#include "fault/fault.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "shard/auto.hpp"
#include "shard/engine.hpp"
#include "sim/batch.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "topology/partition.hpp"
#include "topology/routed.hpp"
#include "topology/topology.hpp"

namespace nct {
namespace {

using cube::MatrixShape;
using cube::PartitionSpec;
using cube::word;

sim::MachineParams cube_machine(int n, sim::Switching sw, sim::PortModel port) {
  sim::MachineParams m = sim::MachineParams::ipsc(n);
  m.switching = sw;
  m.port = port;
  return m;
}

/// Exact equality of everything a timing run reports.  EXPECT_EQ on the
/// doubles deliberately: bit-identity is the contract, not closeness.
void expect_same_run(const sim::RunResult& a, const sim::RunResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.total_time, b.total_time) << what;
  EXPECT_EQ(a.total_copy_time, b.total_copy_time) << what;
  EXPECT_EQ(a.total_sends, b.total_sends) << what;
  EXPECT_EQ(a.total_elements, b.total_elements) << what;
  EXPECT_EQ(a.total_hops, b.total_hops) << what;
  EXPECT_EQ(a.max_link_busy, b.max_link_busy) << what;
  EXPECT_EQ(a.total_reroutes, b.total_reroutes) << what;
  EXPECT_EQ(a.total_retries, b.total_retries) << what;
  EXPECT_EQ(a.total_fault_wait, b.total_fault_wait) << what;
  ASSERT_EQ(a.phases.size(), b.phases.size()) << what;
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const sim::PhaseStats& pa = a.phases[i];
    const sim::PhaseStats& pb = b.phases[i];
    EXPECT_EQ(pa.label, pb.label) << what << " phase " << i;
    EXPECT_EQ(pa.start, pb.start) << what << " phase " << i;
    EXPECT_EQ(pa.end, pb.end) << what << " phase " << i;
    EXPECT_EQ(pa.sends, pb.sends) << what << " phase " << i;
    EXPECT_EQ(pa.elements, pb.elements) << what << " phase " << i;
    EXPECT_EQ(pa.hops, pb.hops) << what << " phase " << i;
    EXPECT_EQ(pa.copy_time, pb.copy_time) << what << " phase " << i;
  }
}

void expect_same_trace(const obs::TraceSink& a, const obs::TraceSink& b,
                       const std::string& what) {
  EXPECT_EQ(a.dimensions(), b.dimensions()) << what;
  EXPECT_EQ(a.nodes(), b.nodes()) << what;
  EXPECT_EQ(a.phase_labels(), b.phase_labels()) << what;
  ASSERT_EQ(a.events().size(), b.events().size()) << what;
  for (std::size_t i = 0; i < a.events().size(); ++i)
    ASSERT_TRUE(a.events()[i] == b.events()[i])
        << what << ": first divergent event at index " << i;
}

/// The golden harness: run serial, then sharded at 1/2/4/8, compare
/// everything exactly.  `faults` may be null.
void expect_shard_invariant(const sim::Program& program, const sim::MachineParams& m,
                            const fault::FaultModel* faults, const std::string& what) {
  const auto compiled = sim::compile(program, m);
  const auto topology = topo::make_topology(m.topology, m.n);

  sim::EngineOptions opts;
  opts.faults = faults;
  const sim::RunResult serial = sim::Engine(m, opts).run_timing(compiled);

  const shard::ShardEngine sharded(m, opts);
  for (const std::uint32_t s : {1u, 2u, 4u, 8u}) {
    const auto part = topo::make_partition(*topology, s);
    shard::ShardScratch scratch;
    sim::RunResult out;
    shard::ShardStats stats;
    sharded.run_timing(compiled, part, scratch, out, &stats);
    expect_same_run(serial, out, what + " shards=" + std::to_string(s));

    EXPECT_EQ(stats.shards, part.shards) << what;
    EXPECT_EQ(stats.shard_nodes, part.counts()) << what;
    std::size_t sum = 0;
    for (const std::size_t e : stats.shard_events) sum += e;
    EXPECT_EQ(sum, stats.parallel_events) << what;
    EXPECT_GE(stats.parallel_fraction(), 0.0) << what;
    EXPECT_LE(stats.parallel_fraction(), 1.0) << what;
    // Every send event is accounted for: the per-phase event totals are
    // at least one event per send (store-and-forward re-injects more).
    EXPECT_GE(stats.parallel_events + stats.serial_events, compiled.total_sends()) << what;

    // Scratch reuse must not perturb results.
    sim::RunResult again;
    sharded.run_timing(compiled, part, scratch, again, nullptr);
    expect_same_run(serial, again, what + " shards=" + std::to_string(s) + " reused");
  }
}

/// Every event of a serial run (a trace sink, cut-through switching, or
/// a phase without lookahead) runs on the spine: no window opens, and
/// there is one event per hop (store-and-forward; a fault retry waits
/// inline) or per send (cut-through).
void expect_serial_stats(const sim::Program& program, const sim::MachineParams& m,
                         const fault::FaultModel* faults, bool traced,
                         const std::string& what) {
  const auto compiled = sim::compile(program, m);
  const auto topology = topo::make_topology(m.topology, m.n);
  for (const std::uint32_t s : {1u, 2u, 4u, 8u}) {
    obs::TraceSink trace;
    sim::EngineOptions opts;
    opts.faults = faults;
    if (traced) opts.trace = &trace;
    const auto part = topo::make_partition(*topology, s);
    shard::ShardScratch scratch;
    sim::RunResult out;
    shard::ShardStats stats;
    shard::ShardEngine(m, opts).run_timing(compiled, part, scratch, out, &stats);
    const std::string at = what + " shards=" + std::to_string(s);
    EXPECT_EQ(stats.shards, part.shards) << at;
    EXPECT_EQ(stats.windows, 0u) << at;
    EXPECT_EQ(stats.parallel_events, 0u) << at;
    EXPECT_EQ(stats.shard_events, std::vector<std::size_t>(part.shards, 0)) << at;
    EXPECT_EQ(stats.serial_events, m.switching == sim::Switching::cut_through
                                       ? out.total_sends
                                       : out.total_hops)
        << at;
    EXPECT_GT(stats.serial_events, 0u) << at;
    EXPECT_EQ(stats.shard_nodes, part.counts()) << at;
  }
}

sim::Program transpose_on(const sim::MachineParams& m) {
  const int half = m.n / 2;
  const MatrixShape s{half + 1, m.n - half + 1};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, m.n - half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), m.n - half, half);
  return core::plan_transpose(before, after, m).program;
}

sim::Program transpose_program(int n, sim::PortModel port) {
  return transpose_on(cube_machine(n, sim::Switching::store_and_forward, port));
}

/// tau = tc = 0: every send is free, so no phase has a lookahead.
sim::MachineParams zero_cost_machine(sim::Switching sw) {
  sim::MachineParams m = sim::MachineParams::nport(6, 0.0, 0.0);
  m.switching = sw;
  return m;
}

sim::Program mpt_program(int n) { return transpose_program(n, sim::PortModel::n_port); }
sim::Program spt_program(int n) { return transpose_program(n, sim::PortModel::one_port); }

TEST(ShardEngine, TransposeNPortStoreAndForwardInvariant) {
  expect_shard_invariant(mpt_program(6),
                         cube_machine(6, sim::Switching::store_and_forward,
                                      sim::PortModel::n_port),
                         nullptr, "6-cube MPT n-port SF");
}

TEST(ShardEngine, TransposeOnePortStoreAndForwardInvariant) {
  expect_shard_invariant(spt_program(6),
                         cube_machine(6, sim::Switching::store_and_forward,
                                      sim::PortModel::one_port),
                         nullptr, "6-cube SPT one-port SF");
}

TEST(ShardEngine, TransposeCutThroughInvariant) {
  for (const auto port : {sim::PortModel::n_port, sim::PortModel::one_port}) {
    const auto m = cube_machine(6, sim::Switching::cut_through, port);
    const MatrixShape s{4, 4};
    const auto before = PartitionSpec::two_dim_cyclic(s, 3, 3);
    const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), 3, 3);
    const auto plan = core::plan_transpose(before, after, m);
    expect_shard_invariant(plan.program, m, nullptr,
                           std::string("6-cube CT ") +
                               (port == sim::PortModel::n_port ? "n-port" : "one-port"));
  }
}

TEST(ShardEngine, RoutedTransposeOnEveryTopologyInvariant) {
  struct Config {
    const char* label;
    topo::TopologyId id;
  };
  for (const Config& c : {Config{"torus4x8", topo::torus_id({4, 8})},
                          Config{"mesh4x4", topo::mesh_id({4, 4})},
                          Config{"dragonfly4x2", topo::dragonfly_id(4, 2)}}) {
    const auto t = topo::make_topology(c.id, 0);
    word rows = 1;
    for (word r = 1; r * r <= t->nodes(); ++r)
      if (t->nodes() % r == 0) rows = r;
    const auto program = topo::plan_routed_transpose(*t, rows, t->nodes() / rows, 2);
    sim::MachineParams m = sim::MachineParams::on_topology(c.id, sim::MachineParams::ipsc(0));
    m.port = sim::PortModel::one_port;
    expect_shard_invariant(program, m, nullptr, c.label);
  }
}

TEST(ShardEngine, ZeroLookaheadInvariant) {
  for (const auto sw : {sim::Switching::store_and_forward, sim::Switching::cut_through}) {
    const auto m = zero_cost_machine(sw);
    const auto program = transpose_on(m);
    const auto compiled = sim::compile(program, m);
    bool zero_lookahead = false;
    for (const sim::CompiledPhase& ph : compiled.phases())
      zero_lookahead = zero_lookahead || (ph.send_end > ph.send_begin && ph.lookahead <= 0.0);
    EXPECT_TRUE(zero_lookahead);
    expect_shard_invariant(program, m, nullptr,
                           sw == sim::Switching::cut_through ? "zero-cost CT" : "zero-cost SF");
  }
}

TEST(ShardEngine, ZeroLookaheadRunStatsAreSerial) {
  const auto m = zero_cost_machine(sim::Switching::store_and_forward);
  expect_serial_stats(transpose_on(m), m, nullptr, false, "zero-cost SF");
}

TEST(ShardEngine, TracedRunStatsAreSerial) {
  expect_serial_stats(spt_program(5),
                      cube_machine(5, sim::Switching::store_and_forward,
                                   sim::PortModel::one_port),
                      nullptr, true, "traced SPT SF");
  const auto ct = cube_machine(6, sim::Switching::cut_through, sim::PortModel::n_port);
  expect_serial_stats(transpose_on(ct), ct, nullptr, true, "traced CT");
  const auto m = cube_machine(5, sim::Switching::store_and_forward, sim::PortModel::n_port);
  fault::FaultSpec spec;
  spec.fail_link(3, 1, fault::Window{0.0, 400.0});
  spec.degrade_link(0, 2, 3.0);
  const fault::FaultModel model(5, spec);
  sim::EngineOptions opts;
  opts.faults = &model;
  EXPECT_GT(sim::Engine(m, opts).run_timing(sim::compile(mpt_program(5), m)).total_retries, 0u);
  expect_serial_stats(mpt_program(5), m, &model, true, "traced faulted SF");
}

TEST(ShardEngine, CutThroughRunStatsAreSerial) {
  // A cut-through send is one event that reserves its whole route, so no
  // window can run it shard-locally: every cut-through run, traced or
  // not, faulted or not, is the single-thread engine's run.
  fault::FaultSpec spec;
  spec.fail_link(3, 1, fault::Window{0.0, 400.0});
  spec.degrade_link(0, 2, 3.0);
  const fault::FaultModel model(6, spec);
  for (const auto port : {sim::PortModel::n_port, sim::PortModel::one_port}) {
    const auto m = cube_machine(6, sim::Switching::cut_through, port);
    const std::string what =
        std::string("CT ") + (port == sim::PortModel::n_port ? "n-port" : "one-port");
    expect_serial_stats(transpose_on(m), m, nullptr, false, what);
    expect_serial_stats(transpose_on(m), m, &model, false, what + " faulted");
  }
}

TEST(ShardEngine, FaultedRunInvariant) {
  // Transient outage + a degraded link: retries and fault wait must fold
  // identically through the serial spine.
  const auto m = cube_machine(5, sim::Switching::store_and_forward, sim::PortModel::n_port);
  fault::FaultSpec spec;
  spec.fail_link(3, 1, fault::Window{0.0, 400.0});
  spec.degrade_link(0, 2, 3.0);
  const fault::FaultModel model(5, spec);
  expect_shard_invariant(mpt_program(5), m, &model, "5-cube faulted");
}

TEST(ShardEngine, LinkTraceInvariant) {
  // Link occupancy (hop events) of an n-port MPT run is the same at
  // every shard count, and its (2, 2H)-disjoint waves never overlap.
  const auto m = cube_machine(4, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto compiled = sim::compile(mpt_program(4), m);
  const auto topology = topo::make_topology(m.topology, m.n);
  obs::TraceSink serial_trace;
  sim::EngineOptions opts;
  opts.trace = &serial_trace;
  const auto serial = sim::Engine(m, opts).run_timing(compiled);
  EXPECT_EQ(obs::peak_link_overlap(serial_trace), 1u);
  for (const std::uint32_t s : {1u, 2u, 4u, 8u}) {
    obs::TraceSink trace;
    sim::EngineOptions sopts;
    sopts.trace = &trace;
    const auto out =
        shard::ShardEngine(m, sopts).run_timing(compiled, topo::make_partition(*topology, s));
    expect_same_run(serial, out, "link trace shards=" + std::to_string(s));
    expect_same_trace(serial_trace, trace, "link trace shards=" + std::to_string(s));
  }
}

TEST(ShardEngine, EventTraceIdenticalAtEveryShardCount) {
  const auto m = cube_machine(5, sim::Switching::store_and_forward, sim::PortModel::one_port);
  const auto program = spt_program(5);
  const auto compiled = sim::compile(program, m);
  const auto topology = topo::make_topology(m.topology, m.n);

  obs::TraceSink serial_trace;
  sim::EngineOptions opts;
  opts.trace = &serial_trace;
  const auto serial = sim::Engine(m, opts).run_timing(compiled);

  for (const std::uint32_t s : {1u, 2u, 4u, 8u}) {
    obs::TraceSink trace;
    sim::EngineOptions sopts;
    sopts.trace = &trace;
    const shard::ShardEngine sharded(m, sopts);
    const auto out = sharded.run_timing(compiled, topo::make_partition(*topology, s));
    expect_same_run(serial, out, "trace run shards=" + std::to_string(s));
    expect_same_trace(serial_trace, trace, "trace shards=" + std::to_string(s));
  }
}

TEST(ShardEngine, PermanentFaultAbortsLikeSerial) {
  const auto m = cube_machine(4, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto program = mpt_program(4);
  fault::FaultSpec spec;
  spec.fail_link(0, 0);  // permanent
  const fault::FaultModel model(4, spec);
  sim::EngineOptions opts;
  opts.faults = &model;
  const auto compiled = sim::compile(program, m);
  EXPECT_THROW(sim::Engine(m, opts).run_timing(compiled), fault::FaultError);
  const auto topology = topo::make_topology(m.topology, m.n);
  const shard::ShardEngine sharded(m, opts);
  for (const std::uint32_t s : {1u, 2u, 4u}) {
    EXPECT_THROW(sharded.run_timing(compiled, topo::make_partition(*topology, s)),
                 fault::FaultError)
        << "shards=" << s;
  }
  // The engine stays usable after an abort (scratch is cleaned up).
  const fault::FaultModel healthy;
  sim::EngineOptions hopts;
  const shard::ShardEngine hsharded(m, hopts);
  const auto serial = sim::Engine(m, hopts).run_timing(compiled);
  const auto out = hsharded.run_timing(compiled, topo::make_partition(*topology, 4));
  expect_same_run(serial, out, "post-abort healthy run");
}

TEST(ShardEngine, DegenerateZeroDimCube) {
  // One node, no links: a copy-only program on the 0-d cube.
  sim::Program prog;
  prog.n = 0;
  prog.local_slots = 2;
  sim::Phase ph;
  ph.pre_copies.push_back(sim::CopyOp{0, {0}, {1}, true});
  prog.phases.push_back(ph);
  const auto m = cube_machine(0, sim::Switching::store_and_forward, sim::PortModel::n_port);
  expect_shard_invariant(prog, m, nullptr, "0-d cube copy only");
}

TEST(ShardEngine, ShardsExceedingActiveNodes) {
  // 2-cube, 4 nodes; request 8 shards — the partitioner clamps to 4 and
  // the run must still match.
  const MatrixShape s{2, 2};
  const auto before = PartitionSpec::two_dim_cyclic(s, 1, 1);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), 1, 1);
  const auto m = cube_machine(2, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto plan = core::plan_transpose(before, after, m);
  expect_shard_invariant(plan.program, m, nullptr, "2-cube oversharded");
}

TEST(ShardEngine, RejectsMismatchedPartition) {
  const auto m = cube_machine(3, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto compiled = sim::compile(mpt_program(3), m);
  const shard::ShardEngine sharded(m);
  topo::Partition bad;
  bad.shards = 2;
  bad.owner.assign(4, 0);  // wrong node count (8 expected)
  EXPECT_THROW(sharded.run_timing(compiled, bad), sim::ProgramError);
  topo::Partition out_of_range;
  out_of_range.shards = 2;
  out_of_range.owner.assign(8, 7);  // owners >= shards
  EXPECT_THROW(sharded.run_timing(compiled, out_of_range), sim::ProgramError);
}

TEST(ShardEngine, RejectsMismatchedMachine) {
  const auto m = cube_machine(3, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto compiled = sim::compile(mpt_program(3), m);
  auto other = m;
  other.tau *= 2.0;
  const shard::ShardEngine sharded(other);
  const auto topology = topo::make_topology(m.topology, m.n);
  EXPECT_THROW(sharded.run_timing(compiled, topo::make_partition(*topology, 2)),
               sim::ProgramError);
}

TEST(ShardEngine, AutoBatchMatchesEngineBatch) {
  const auto m = cube_machine(5, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto p1 = sim::compile(mpt_program(5), m);
  const auto p2 = sim::compile(spt_program(5), m);
  const std::vector<const sim::CompiledProgram*> progs{&p1, &p2, &p1};
  const sim::Engine engine(m);

  sim::BatchScratch reference;
  const std::size_t ok_ref = engine.run_timing_batch(progs, reference, 1);

  // Force both paths: threshold 1 routes everything through the sharded
  // engine; a huge threshold keeps everything on the batched engine.
  for (const word threshold : {word{1}, word{1} << 40}) {
    shard::AutoPolicy policy;
    policy.min_nodes = threshold;
    policy.shards = 4;
    sim::BatchScratch batch;
    shard::AutoScratch scratch;
    const std::size_t ok =
        shard::run_timing_batch_auto(engine, progs, batch, 1, scratch, policy);
    EXPECT_EQ(ok, ok_ref);
    ASSERT_GE(batch.runs.size(), progs.size());
    for (std::size_t i = 0; i < progs.size(); ++i) {
      EXPECT_EQ(batch.runs[i].ok, reference.runs[i].ok) << i;
      expect_same_run(reference.runs[i].result, batch.runs[i].result,
                      "auto batch item " + std::to_string(i));
    }
  }
}

TEST(ShardEngine, AutoBatchRejectsProgramForAnotherMachine) {
  const auto m = cube_machine(5, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto other = cube_machine(4, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto ok = sim::compile(mpt_program(5), m);
  const auto wrong = sim::compile(mpt_program(4), other);
  const std::vector<const sim::CompiledProgram*> progs{&ok, &wrong};
  const sim::Engine engine(m);
  for (const word threshold : {word{1}, word{1} << 40}) {
    shard::AutoPolicy policy;
    policy.min_nodes = threshold;
    policy.shards = 2;
    sim::BatchScratch batch;
    shard::AutoScratch scratch;
    EXPECT_THROW(shard::run_timing_batch_auto(engine, progs, batch, 1, scratch, policy),
                 sim::ProgramError)
        << "min_nodes=" << threshold;
  }
}

TEST(ShardEngine, AutoBatchReusesItsScratchAcrossCalls) {
  const auto m = cube_machine(4, sim::Switching::store_and_forward, sim::PortModel::n_port);
  const auto compiled = sim::compile(mpt_program(4), m);
  const std::vector<const sim::CompiledProgram*> progs{&compiled};
  const sim::Engine engine(m);

  sim::BatchScratch reference;
  engine.run_timing_batch(progs, reference, 1);

  shard::AutoPolicy policy;
  policy.min_nodes = 1;  // force the sharded path
  policy.shards = 2;
  sim::BatchScratch batch;
  shard::AutoScratch scratch;
  for (int call = 0; call < 2; ++call) {
    const std::size_t ok = shard::run_timing_batch_auto(engine, progs, batch, 1, scratch, policy);
    EXPECT_EQ(ok, 1u);
    expect_same_run(reference.runs[0].result, batch.runs[0].result,
                    "reused scratch call " + std::to_string(call));
  }
}

TEST(ShardEngine, AutoBatchCapturesFaultErrorPerSlot) {
  const auto m = cube_machine(4, sim::Switching::store_and_forward, sim::PortModel::n_port);
  fault::FaultSpec spec;
  spec.fail_link(0, 0);  // permanent: MPT routes cross it
  const fault::FaultModel model(4, spec);
  sim::EngineOptions opts;
  opts.faults = &model;
  const sim::Engine engine(m, opts);
  const auto compiled = sim::compile(mpt_program(4), m);
  const std::vector<const sim::CompiledProgram*> progs{&compiled};
  shard::AutoPolicy policy;
  policy.min_nodes = 1;  // force the sharded path
  policy.shards = 2;
  sim::BatchScratch batch;
  shard::AutoScratch scratch;
  const std::size_t ok = shard::run_timing_batch_auto(engine, progs, batch, 1, scratch, policy);
  EXPECT_EQ(ok, 0u);
  ASSERT_EQ(batch.runs.size(), 1u);
  EXPECT_FALSE(batch.runs[0].ok);
  EXPECT_FALSE(batch.runs[0].error.empty());
}

}  // namespace
}  // namespace nct
