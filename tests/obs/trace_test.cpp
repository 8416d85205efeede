// TraceSink recording semantics, the structure of engine-emitted event
// streams, and the Chrome / binary exporters.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "comm/all_to_all.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"

namespace nct::obs {
namespace {

TraceSink tiny_trace() {
  TraceSink sink;
  sink.begin_run(2);
  sink.phase_begin(0, "exchange", 0.0);
  sink.send_begin(0, 0, 3, 0, 8, 0.0, 1.0);
  sink.hop(0, 0, 1, 0, 0, 8, 0.0, 1.0);
  sink.hop(0, 1, 3, 1, 0, 8, 1.0, 2.0);
  sink.send_end(0, 3, 0, 0, 8, 1.0, 2.0);
  sink.phase_end(0, 2.0);
  return sink;
}

TEST(TraceSink, RecordsEventsInOrder) {
  const auto sink = tiny_trace();
  EXPECT_EQ(sink.dimensions(), 2);
  EXPECT_EQ(sink.nodes(), 4u);
  ASSERT_EQ(sink.events().size(), 6u);
  EXPECT_EQ(sink.events()[0].kind, EventKind::phase_begin);
  EXPECT_EQ(sink.events()[1].kind, EventKind::send_begin);
  EXPECT_EQ(sink.events()[1].node, 0u);
  EXPECT_EQ(sink.events()[1].peer, 3u);
  EXPECT_EQ(sink.events()[1].bytes, 8u);
  EXPECT_EQ(sink.events()[2].dim, 0);
  EXPECT_EQ(sink.events()[3].dim, 1);
  EXPECT_EQ(sink.events()[5].kind, EventKind::phase_end);
  ASSERT_EQ(sink.phase_labels().size(), 1u);
  EXPECT_EQ(sink.phase_labels()[0], "exchange");
  EXPECT_DOUBLE_EQ(sink.total_time(), 2.0);
  EXPECT_FALSE(sink.empty());
}

TEST(TraceSink, BeginRunClearsPreviousRun) {
  auto sink = tiny_trace();
  sink.begin_run(3);
  EXPECT_TRUE(sink.empty());
  EXPECT_TRUE(sink.phase_labels().empty());
  EXPECT_EQ(sink.dimensions(), 3);
}

TEST(TraceSink, KindNamesAreStable) {
  EXPECT_STREQ(event_kind_name(EventKind::hop), "hop");
  EXPECT_STREQ(event_kind_name(EventKind::send_begin), "send_begin");
  EXPECT_STREQ(event_kind_name(EventKind::phase_end), "phase_end");
}

/// Run a program in data mode with a sink attached.
std::pair<TraceSink, sim::RunResult> traced_run(const sim::Program& prog,
                                                const sim::MachineParams& m,
                                                const sim::Memory& init) {
  TraceSink sink;
  sim::EngineOptions opt;
  opt.trace = &sink;
  auto res = sim::Engine(m, opt).run(prog, init);
  return {std::move(sink), std::move(res)};
}

TEST(EngineTracing, EventStreamMatchesRunStatistics) {
  const int n = 3;
  const auto prog = comm::all_to_all_exchange(n, 2);
  const auto m = sim::MachineParams::ipsc(n);
  const auto [sink, res] = traced_run(prog, m, comm::all_to_all_initial_memory(n, 2));

  ASSERT_FALSE(sink.empty());
  EXPECT_EQ(sink.dimensions(), n);
  EXPECT_EQ(sink.phase_labels().size(), res.phases.size());

  std::size_t sends = 0, arrivals = 0, hops = 0, begins = 0, ends = 0;
  double copy_time = 0.0;
  for (const TraceEvent& e : sink.events()) {
    EXPECT_GE(e.t1, e.t0);
    EXPECT_GE(e.t0, 0.0);
    EXPECT_LE(e.t1, res.total_time);
    switch (e.kind) {
      case EventKind::send_begin: ++sends; break;
      case EventKind::send_end: ++arrivals; break;
      case EventKind::hop:
        ++hops;
        EXPECT_GE(e.dim, 0);
        EXPECT_LT(e.dim, n);
        break;
      case EventKind::phase_begin: ++begins; break;
      case EventKind::phase_end: ++ends; break;
      case EventKind::copy:
      case EventKind::stage: copy_time += e.t1 - e.t0; break;
      default: break;
    }
  }
  EXPECT_EQ(sends, res.total_sends);
  EXPECT_EQ(arrivals, res.total_sends);  // every message arrives exactly once
  EXPECT_EQ(hops, res.total_hops);
  EXPECT_EQ(begins, res.phases.size());
  EXPECT_EQ(ends, res.phases.size());
  EXPECT_NEAR(copy_time, res.total_copy_time, 1e-12);
  EXPECT_DOUBLE_EQ(sink.total_time(), res.total_time);
}

TEST(EngineTracing, PhaseIndicesAreMonotone) {
  const int n = 3;
  const auto prog = comm::all_to_all_exchange(n, 2);
  const auto m = sim::MachineParams::ipsc(n);
  const auto [sink, res] = traced_run(prog, m, comm::all_to_all_initial_memory(n, 2));
  (void)res;
  std::int32_t phase = 0;
  for (const TraceEvent& e : sink.events()) {
    EXPECT_GE(e.phase, phase);
    phase = e.phase;
  }
}

TEST(EngineTracing, OnePortMachineEmitsPortWaits) {
  // Two same-phase injections from one node on a one-port machine: the
  // second must stall on the send port, and the stall must be visible as
  // a port_wait_send event covering exactly the first message's busy
  // interval.
  // Routes use *different* links so the stall is on the port, not the
  // link.
  sim::Program prog;
  prog.n = 2;
  prog.local_slots = 4;
  sim::Phase ph;
  ph.sends.add(0, {0}, {0}, {0});
  ph.sends.add(0, {1}, {1}, {1});
  prog.phases.push_back(ph);

  auto m = sim::MachineParams::nport(2, 1.0, 0.25);
  m.port = sim::PortModel::one_port;
  m.element_bytes = 1;
  sim::Memory init(4, std::vector<cube::word>(4, sim::kEmptySlot));
  init[0][0] = 7;
  init[0][1] = 8;
  const auto [sink, res] = traced_run(prog, m, init);

  std::vector<TraceEvent> waits;
  for (const TraceEvent& e : sink.events()) {
    if (e.kind == EventKind::port_wait_send || e.kind == EventKind::port_wait_recv)
      waits.push_back(e);
  }
  ASSERT_FALSE(waits.empty());
  EXPECT_EQ(waits[0].kind, EventKind::port_wait_send);
  EXPECT_EQ(waits[0].node, 0u);
  EXPECT_DOUBLE_EQ(waits[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(waits[0].t1, m.hop_time(1));  // first message's send slot
  EXPECT_GT(res.total_time, m.hop_time(1));      // serialised, not parallel
}

TEST(EngineTracing, TimingOnlyPathEmitsIdenticalStream) {
  const int n = 3;
  const auto prog = comm::all_to_all_exchange(n, 2);
  const auto m = sim::MachineParams::ipsc(n);
  const auto [data, res] = traced_run(prog, m, comm::all_to_all_initial_memory(n, 2));
  (void)res;

  TraceSink timing;
  sim::EngineOptions opt;
  opt.trace = &timing;
  sim::Engine(m, opt).run_timing(sim::compile(prog, m));

  EXPECT_EQ(data.phase_labels(), timing.phase_labels());
  EXPECT_EQ(data.events(), timing.events());
}

TEST(TraceExport, BinaryRoundTripIsExact) {
  const int n = 3;
  const auto prog = comm::all_to_all_exchange(n, 2);
  const auto m = sim::MachineParams::ipsc(n);
  const auto [sink, res] = traced_run(prog, m, comm::all_to_all_initial_memory(n, 2));
  (void)res;

  std::stringstream ss;
  write_binary_trace(sink, ss);
  const TraceSink back = read_binary_trace(ss);
  EXPECT_EQ(back.dimensions(), sink.dimensions());
  EXPECT_EQ(back.nodes(), sink.nodes());
  EXPECT_EQ(back.phase_labels(), sink.phase_labels());
  EXPECT_EQ(back.events(), sink.events());
}

TEST(TraceExport, BinaryRejectsGarbage) {
  std::stringstream ss("definitely not a trace");
  EXPECT_THROW(read_binary_trace(ss), std::runtime_error);
}

/// tiny_trace() in the binary format with the u32 at byte `offset`
/// (little-endian) replaced by `value`.
std::string patched_trace(std::size_t offset, std::uint32_t value) {
  std::stringstream ss;
  write_binary_trace(tiny_trace(), ss);
  std::string bytes = ss.str();
  for (int i = 0; i < 4; ++i)
    bytes[offset + static_cast<std::size_t>(i)] = static_cast<char>(value >> (8 * i));
  return bytes;
}

TEST(TraceExport, OnlyCurrentVersionReads) {
  // Header: magic[8] | u32 version | ...; every writer emits version 4.
  for (const std::uint32_t version : {0u, 3u, 5u}) {
    std::stringstream ss(patched_trace(8, version));
    try {
      read_binary_trace(ss);
      ADD_FAILURE() << "version " << version << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "unsupported trace version") << "version " << version;
    }
  }
}

TEST(TraceExport, HugeLabelCountFailsAsTruncated) {
  // Header: magic[8] | u32 version | u32 ports | u64 nodes | u64 events
  // | u32 label count.  A declared count the stream cannot hold must not
  // size an allocation; the read fails on the first missing label.
  std::stringstream ss(patched_trace(32, 0xFFFFFFFFu));
  EXPECT_THROW(read_binary_trace(ss), std::runtime_error);
}

TEST(TraceExport, BinaryFileRoundTrip) {
  const auto sink = tiny_trace();
  const std::string path = testing::TempDir() + "nct_trace_roundtrip.bin";
  ASSERT_TRUE(write_binary_trace_file(sink, path));
  const TraceSink back = read_binary_trace_file(path);
  EXPECT_EQ(back.events(), sink.events());
  std::remove(path.c_str());
}

TEST(TraceExport, ChromeJsonLooksSane) {
  const int n = 3;
  const auto prog = comm::all_to_all_exchange(n, 2);
  const auto m = sim::MachineParams::ipsc(n);
  const auto [sink, res] = traced_run(prog, m, comm::all_to_all_initial_memory(n, 2));
  (void)res;

  std::stringstream ss;
  write_chrome_trace(sink, ss);
  const std::string json = ss.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\""), std::string::npos);
  // Balanced braces and brackets (a cheap well-formedness proxy that
  // catches truncation and missing commas-before-close).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace nct::obs
