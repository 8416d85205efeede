// Engine fault semantics: transient outages delay and retry, degrades
// stretch hop times, permanent outages abort — and both compiled modes
// (data and timing-only) reproduce pinned faulted runs exactly, with
// byte-identical event traces.  With an empty FaultSpec, runs are
// byte-identical to runs with no fault options at all.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "support/golden_digest.hpp"
#include "topology/hypercube.hpp"

namespace nct::sim {
namespace {

using cube::word;

/// One send of one element from node 0 along `route`.
Program one_send(int n, std::vector<int> route) {
  Program p;
  p.n = n;
  p.local_slots = 1;
  Phase ph;
  ph.label = "send";
  ph.sends.add(0, route, {{0}}, {{0}});
  p.phases.push_back(ph);
  return p;
}

Memory one_element_memory(int n) {
  Memory mem(word{1} << n, std::vector<word>(1, kEmptySlot));
  mem[0][0] = 42;
  return mem;
}

MachineParams unit_machine(int n) {
  auto m = MachineParams::nport(n, 1.0, 0.25);
  m.element_bytes = 1;  // one hop costs tau + tc = 1.25
  return m;
}

RunResult run_faulted(const Program& prog, const MachineParams& m, const Memory& init,
                      const fault::FaultModel* fm, fault::RetryPolicy retry = {},
                      obs::TraceSink* sink = nullptr) {
  EngineOptions opt;
  opt.faults = fm;
  opt.retry = retry;
  opt.trace = sink;
  return Engine(m, opt).run(prog, init);
}

TEST(EngineFaults, TransientOutageDelaysAndRetries) {
  const auto m = unit_machine(1);
  const auto prog = one_send(1, {0});
  const auto init = one_element_memory(1);

  const auto healthy = Engine(m).run(prog, init);
  EXPECT_DOUBLE_EQ(healthy.total_time, 1.25);

  const fault::FaultModel fm(1, fault::FaultSpec{}.fail_link(0, 0, {0.0, 10.0}));
  obs::TraceSink sink;
  const auto faulted = run_faulted(prog, m, init, &fm, {}, &sink);
  EXPECT_DOUBLE_EQ(faulted.total_time, 11.25);
  EXPECT_EQ(faulted.total_retries, 1u);
  EXPECT_DOUBLE_EQ(faulted.total_fault_wait, 10.0);
  EXPECT_EQ(faulted.memory, healthy.memory);  // delayed, never lost

  std::size_t downs = 0, retries = 0;
  for (const auto& e : sink.events()) {
    if (e.kind == obs::EventKind::link_down) {
      downs += 1;
      EXPECT_DOUBLE_EQ(e.t0, 0.0);
      EXPECT_DOUBLE_EQ(e.t1, 10.0);
    }
    if (e.kind == obs::EventKind::retry) retries += 1;
  }
  EXPECT_EQ(downs, 1u);
  EXPECT_EQ(retries, 1u);
}

TEST(EngineFaults, RetryPenaltyIsChargedPerReinjection) {
  const auto m = unit_machine(1);
  const auto prog = one_send(1, {0});
  const auto init = one_element_memory(1);
  const fault::FaultModel fm(1, fault::FaultSpec{}.fail_link(0, 0, {0.0, 10.0}));
  fault::RetryPolicy retry;
  retry.retry_penalty = 0.5;
  const auto res = run_faulted(prog, m, init, &fm, retry);
  EXPECT_DOUBLE_EQ(res.total_time, 11.75);  // 10 down + 0.5 penalty + 1.25 hop
}

TEST(EngineFaults, DegradedLinkStretchesTheHop) {
  const auto m = unit_machine(1);
  const auto prog = one_send(1, {0});
  const auto init = one_element_memory(1);
  const fault::FaultModel fm(1, fault::FaultSpec{}.degrade_link(0, 0, 3.0));
  const auto res = run_faulted(prog, m, init, &fm);
  EXPECT_DOUBLE_EQ(res.total_time, 3.75);  // 3 x (tau + tc)
  EXPECT_EQ(res.total_retries, 0u);
}

TEST(EngineFaults, PermanentOutageAbortsWithTraceEvent) {
  const auto m = unit_machine(1);
  const auto prog = one_send(1, {0});
  const auto init = one_element_memory(1);
  const fault::FaultModel fm(1, fault::FaultSpec{}.fail_link(0, 0));
  obs::TraceSink sink;
  EXPECT_THROW(run_faulted(prog, m, init, &fm, {}, &sink), fault::FaultError);
  bool aborted = false;
  for (const auto& e : sink.events()) aborted = aborted || e.kind == obs::EventKind::aborted;
  EXPECT_TRUE(aborted);
}

TEST(EngineFaults, ExhaustedRetryBudgetAborts) {
  const auto m = unit_machine(1);
  const auto prog = one_send(1, {0});
  const auto init = one_element_memory(1);
  // Two windows arranged so the 0.5 s retry penalty after the first
  // outage lands the re-injection inside the second.
  const fault::FaultModel fm(
      1, fault::FaultSpec{}.fail_link(0, 0, {0.0, 1.0}).fail_link(0, 0, {1.2, 2.0}));
  fault::RetryPolicy strict;
  strict.max_retries = 0;
  strict.retry_penalty = 0.5;
  EXPECT_THROW(run_faulted(prog, m, init, &fm, strict), fault::FaultError);
  // With budget the same outage sequence completes: one retry per
  // window crossed.
  fault::RetryPolicy lax;
  lax.max_retries = 2;
  lax.retry_penalty = 0.5;
  const auto res = run_faulted(prog, m, init, &fm, lax);
  EXPECT_EQ(res.total_retries, 2u);
  EXPECT_DOUBLE_EQ(res.total_time, 2.5 + 1.25);  // up at 2, penalty, hop
}

TEST(EngineFaults, TimeoutAborts) {
  const auto m = unit_machine(1);
  const auto prog = one_send(1, {0});
  const auto init = one_element_memory(1);
  const fault::FaultModel fm(1, fault::FaultSpec{}.fail_link(0, 0, {0.0, 10.0}));
  fault::RetryPolicy impatient;
  impatient.timeout = 5.0;
  EXPECT_THROW(run_faulted(prog, m, init, &fm, impatient), fault::FaultError);
}

TEST(EngineFaults, DimensionMismatchIsAProgramError) {
  const auto m = unit_machine(1);
  const auto prog = one_send(1, {0});
  const auto init = one_element_memory(1);
  const fault::FaultModel fm(3, fault::FaultSpec{}.fail_link(0, 0, {0.0, 1.0}));
  EXPECT_THROW(run_faulted(prog, m, init, &fm), ProgramError);
}

TEST(EngineFaults, EmptySpecIsByteIdenticalToNoFaultOptions) {
  const int n = 4, half = 2;
  const cube::MatrixShape s{3, 3};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = MachineParams::ipsc(n);
  const auto prog = core::transpose_mpt(before, after, m);
  const auto init = core::transpose_initial_memory(before, n, prog.local_slots);

  obs::TraceSink plain_trace;
  EngineOptions plain_opt;
  plain_opt.trace = &plain_trace;
  const auto plain = Engine(m, plain_opt).run(prog, init);

  const fault::FaultModel empty_model(n, fault::FaultSpec{});
  obs::TraceSink gated_trace;
  const auto gated = run_faulted(prog, m, init, &empty_model, {}, &gated_trace);

  EXPECT_EQ(plain.total_time, gated.total_time);
  EXPECT_EQ(plain.memory, gated.memory);
  ASSERT_EQ(plain_trace.events().size(), gated_trace.events().size());
  for (std::size_t i = 0; i < plain_trace.events().size(); ++i) {
    ASSERT_TRUE(plain_trace.events()[i] == gated_trace.events()[i]) << "event " << i;
  }

  // A planner handed the empty model emits the same program as one
  // planned with no fault options.
  core::Transpose2DOptions topt;
  topt.faults = &empty_model;
  const auto replanned = core::transpose_mpt(before, after, m, topt);
  const auto replanned_res = Engine(m).run(replanned, init);
  EXPECT_EQ(replanned_res.total_time, plain.total_time);
  EXPECT_EQ(replanned_res.total_reroutes, 0u);
}

/// A faulted run pinned as data: exact total time, and FNV-1a 64 digests
/// of the binary event trace and of the final memory image.
struct Pinned {
  double total_time;
  std::uint64_t trace;
  std::uint64_t memory;
};

/// Pinned runs, recorded from the heap-based interpreter that preceded
/// the compiled executor, in the loop order below: iPSC then CM; one-port then
/// n-port; store-and-forward then cut-through; MPT then stepwise.
constexpr Pinned kFaulted[] = {
    {0.08509999999999998, 0xb9774a0a811cb742ULL, 0xa3c8df434cae2bd5ULL},
    {0.07020800000000002, 0x088db97662a7cb82ULL, 0xe5819d075f4d79d5ULL},
    {0.170096, 0xd4f4c800549b4db6ULL, 0xa3c8df434cae2bd5ULL},
    {0.07017600000000002, 0x08dfba3969b48ef2ULL, 0xe5819d075f4d79d5ULL},
    {0.070088, 0xedcc4924ed63fd87ULL, 0xa3c8df434cae2bd5ULL},
    {0.07020800000000002, 0x088db97662a7cb82ULL, 0xe5819d075f4d79d5ULL},
    {0.11008400000000003, 0x3dfc8f6bf088a54aULL, 0xa3c8df434cae2bd5ULL},
    {0.07017600000000002, 0x08dfba3969b48ef2ULL, 0xe5819d075f4d79d5ULL},
    {0.05019680000000001, 0xc0932a9b28c52774ULL, 0xa3c8df434cae2bd5ULL},
    {0.050209600000000014, 0x305bb9ce80fa39eeULL, 0xe5819d075f4d79d5ULL},
    {0.05052879999999999, 0xf5c52ef30465ddb1ULL, 0xa3c8df434cae2bd5ULL},
    {0.05014559999999999, 0xc751366f6d390ea3ULL, 0xe5819d075f4d79d5ULL},
    {0.050112800000000006, 0x5e0f073558d51603ULL, 0xa3c8df434cae2bd5ULL},
    {0.050209600000000014, 0x305bb9ce80fa39eeULL, 0xe5819d075f4d79d5ULL},
    {0.0502648, 0xedc6681821ba1468ULL, 0xa3c8df434cae2bd5ULL},
    {0.05014559999999999, 0xc751366f6d390ea3ULL, 0xe5819d075f4d79d5ULL},
};

/// Both compiled modes under the same fault model must reproduce the
/// pinned run and agree with each other on the fault counters.
void golden_faulted(const Program& prog, const MachineParams& m, const Memory& init,
                    const fault::FaultModel& fm, const Pinned& want,
                    std::size_t& fault_events_seen) {
  obs::TraceSink td, tt;
  const auto engine = [&](obs::TraceSink& sink) {
    EngineOptions opt;
    opt.trace = &sink;
    opt.faults = &fm;
    return Engine(m, opt);
  };
  const auto compiled = compile(prog, m);
  const auto data = engine(td).run(compiled, init);
  const auto timing = engine(tt).run_timing(compiled);

  EXPECT_EQ(data.total_time, want.total_time);
  EXPECT_EQ(timing.total_time, want.total_time);
  EXPECT_EQ(golden::trace_digest(td), want.trace);
  EXPECT_EQ(golden::trace_digest(tt), want.trace);
  EXPECT_EQ(golden::memory_digest(data.memory), want.memory);
  EXPECT_EQ(data.total_retries, timing.total_retries);
  EXPECT_EQ(data.total_reroutes, timing.total_reroutes);
  EXPECT_EQ(data.total_fault_wait, timing.total_fault_wait);
  EXPECT_EQ(data.total_hops, timing.total_hops);

  for (const auto& e : td.events()) {
    if (e.kind >= obs::EventKind::link_down) fault_events_seen += 1;
  }
}

TEST(EngineFaults, GoldenAcrossEnginePathsUnderFaults) {
  const int n = 4, half = 2;
  const cube::MatrixShape s{3, 3};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);

  // Node 1 starts the run dark, one wire blips mid-run, one wire is slow.
  const fault::FaultSpec spec = fault::FaultSpec{}
                                    .fail_node(1, {0.0, 0.05})
                                    .fail_link(6, 3, {0.01, 0.02})
                                    .degrade_link(2, 1, 2.0);

  std::size_t fault_events = 0;
  std::size_t i = 0;
  for (const auto& base : {MachineParams::ipsc(n), MachineParams::cm(n)}) {
    for (const auto port : {PortModel::one_port, PortModel::n_port}) {
      for (const auto sw : {Switching::store_and_forward, Switching::cut_through}) {
        auto m = base;
        m.port = port;
        m.switching = sw;
        const fault::FaultModel fm(n, spec);
        for (int which = 0; which < 2; ++which) {
          const auto prog = which == 0 ? core::transpose_mpt(before, after, m)
                                       : core::transpose_2d_stepwise(
                                             cube::PartitionSpec::two_dim_consecutive(
                                                 s, half, half),
                                             cube::PartitionSpec::two_dim_consecutive(
                                                 s.transposed(), half, half),
                                             m);
          const auto init = core::transpose_initial_memory(
              which == 0 ? before
                         : cube::PartitionSpec::two_dim_consecutive(s, half, half),
              n, prog.local_slots);
          golden_faulted(prog, m, init, fm, kFaulted[i++], fault_events);
        }
      }
    }
  }
  EXPECT_GT(fault_events, 0u);  // the windows really were hit
}

}  // namespace
}  // namespace nct::sim
