// Batched timing-only execution: Engine::run_timing_batch must be
// bit-identical to per-program Engine::run_timing (itself pinned by
// the compile goldens) regardless of batch size, worker
// count, scratch reuse history, or fault injection; the calendar event
// queue underneath must pop in exact ascending (ready, pid) order; and
// the contiguous work split must cover every item exactly once.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "sim/scratch.hpp"

namespace nct::sim {
namespace {

using cube::word;

// ---------------------------------------------------------------------
// CalendarQueue

using detail::CalendarQueue;

std::vector<CalendarQueue::Event> drain(CalendarQueue& q) {
  std::vector<CalendarQueue::Event> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

void expect_sorted(const std::vector<CalendarQueue::Event>& evs) {
  for (std::size_t i = 1; i < evs.size(); ++i) {
    const auto& a = evs[i - 1];
    const auto& b = evs[i];
    const bool ordered = a.ready != b.ready ? a.ready < b.ready : a.pid < b.pid;
    ASSERT_TRUE(ordered) << "out of order at " << i << ": (" << a.ready << ", "
                         << a.pid << ") before (" << b.ready << ", " << b.pid << ")";
  }
}

TEST(CalendarQueue, TiesPopInInjectionSequenceOrder) {
  CalendarQueue q;
  q.begin_phase(0.0, 1.0);
  for (const std::uint32_t pid : {5u, 1u, 3u, 2u, 4u, 0u}) q.push(pid, 7.0);
  const auto evs = drain(q);
  ASSERT_EQ(evs.size(), 6u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].pid, static_cast<std::uint32_t>(i));
    EXPECT_EQ(evs[i].ready, 7.0);
  }
}

TEST(CalendarQueue, PopsAscendingAcrossSpreadAndWrappedDays) {
  // Deterministic LCG spread over ~20k bucket-days (several calendar
  // revolutions of the 512-bucket ring), including duplicate times.
  CalendarQueue q;
  q.begin_phase(0.0, 1.0);
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  std::vector<CalendarQueue::Event> ref;
  for (std::uint32_t pid = 0; pid < 4000; ++pid) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double ready = static_cast<double>((x >> 33) % 20000) * 1.0625;
    q.push(pid, ready);
    ref.push_back({ready, pid});
  }
  const auto evs = drain(q);
  ASSERT_EQ(evs.size(), ref.size());
  expect_sorted(evs);
  std::sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
    return a.ready != b.ready ? a.ready < b.ready : a.pid < b.pid;
  });
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].ready, ref[i].ready);
    EXPECT_EQ(evs[i].pid, ref[i].pid);
  }
}

TEST(CalendarQueue, InterleavedReinjectionStaysOrdered) {
  // Store-and-forward shape: pop the earliest event, re-inject it at a
  // later ready time, never below the last popped time.
  CalendarQueue q;
  q.begin_phase(0.0, 0.5);
  for (std::uint32_t pid = 0; pid < 64; ++pid)
    q.push(pid, static_cast<double>(pid % 7) * 0.25);
  double last = -1.0;
  std::size_t hops = 0;
  while (!q.empty()) {
    const auto ev = q.pop();
    ASSERT_GE(ev.ready, last);
    last = ev.ready;
    if (++hops <= 256 && ev.ready < 40.0) q.push(ev.pid, ev.ready + 1.75);
  }
  EXPECT_GT(hops, 64u);
}

TEST(CalendarQueue, FarFutureTimesClampButStayOrdered) {
  CalendarQueue q;
  q.begin_phase(0.0, 1.0e-12);  // huge inv_width: every time lands on the clamp day
  q.push(2, 3.0e15);
  q.push(1, 1.0e15);
  q.push(0, 1.0e15);
  const auto evs = drain(q);
  ASSERT_EQ(evs.size(), 3u);
  expect_sorted(evs);
  EXPECT_EQ(evs[0].pid, 0u);
  EXPECT_EQ(evs[1].pid, 1u);
  EXPECT_EQ(evs[2].pid, 2u);
}

TEST(CalendarQueue, ClearThenReuse) {
  CalendarQueue q;
  q.begin_phase(0.0, 1.0);
  for (std::uint32_t pid = 0; pid < 100; ++pid) q.push(pid, static_cast<double>(pid));
  EXPECT_EQ(q.size(), 100u);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.begin_phase(50.0, 2.0);
  q.push(7, 51.0);
  q.push(3, 51.0);
  const auto evs = drain(q);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].pid, 3u);
  EXPECT_EQ(evs[1].pid, 7u);
}

TEST(CalendarQueue, RetainsCapacityForLiveEventsNotEveryBucket) {
  // Each phase of a 12-cube SPT stepwise run starts at a later clock,
  // so it fills buckets at a different place on the ring.  Drained
  // buckets hand their storage on, so the queue keeps capacity for the
  // events live at once (at most one per send of a phase), not every
  // bucket's own peak; and repeated runs reuse it without growing.
  const int n = 12, half = n / 2;
  const cube::MatrixShape s{half, n - half};
  const auto before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  const auto m = MachineParams::ipsc(n);
  const CompiledProgram cp = compile(core::transpose_2d_stepwise(before, after, m), m);
  ASSERT_GE(cp.phases().size(), 6u);
  const Engine engine(m);
  RunScratch scratch;
  RunResult out;
  engine.run_timing(cp, scratch, out);
  const std::size_t first = scratch.queue.heap_bytes();
  for (int run = 0; run < 3; ++run) engine.run_timing(cp, scratch, out);
  EXPECT_EQ(scratch.queue.heap_bytes(), first);

  const std::size_t buckets = CalendarQueue().heap_bytes();
  const std::size_t live = cp.max_phase_sends() * sizeof(CalendarQueue::Event);
  EXPECT_LE(scratch.queue.heap_bytes(), buckets + 4 * live)
      << "buckets " << buckets << " B, live " << live << " B";
  // The rest of a timing run's scratch: two clocks per active link,
  // three per node and a hop index per send of the largest phase.
  EXPECT_EQ(scratch.heap_bytes(),
            scratch.queue.heap_bytes() + 2 * sizeof(double) * cp.active_links().size() +
                3 * sizeof(double) * static_cast<std::size_t>(cp.nodes()) +
                sizeof(std::uint32_t) * cp.max_phase_sends());
}

TEST(CalendarQueue, PushBelowAPeekedDayPopsFirst) {
  // A window drain's shape: top() peeks past the window end (advancing
  // the day), then a forward lands in a day it skipped.
  CalendarQueue q;
  q.begin_phase(0.0, 1.0);
  q.push(0, 0.0);
  q.push(1, 5.0);
  EXPECT_EQ(q.pop().pid, 0u);
  EXPECT_EQ(q.top().pid, 1u);
  q.push(2, 2.0);
  EXPECT_EQ(q.top().pid, 2u);
  const auto evs = drain(q);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].pid, 2u);
  EXPECT_EQ(evs[1].pid, 1u);

  // Seeded interleavings of top, pop and push (never below the last
  // popped time), against a sorted reference.  Offsets span same-day
  // pushes up to several revolutions of the bucket ring.
  const auto less = [](const CalendarQueue::Event& a, const CalendarQueue::Event& b) {
    return a.ready != b.ready ? a.ready < b.ready : a.pid < b.pid;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull;
    const auto draw = [&](std::uint64_t bound) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return (x >> 33) % bound;
    };
    q.begin_phase(0.0, 1.0);
    std::vector<CalendarQueue::Event> ref;  // kept sorted
    double last = 0.0;
    std::uint32_t next_pid = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = draw(8);
      if (op < 4 || ref.empty()) {
        const double span = draw(4) == 0 ? 3000.0 : 12.0;
        const CalendarQueue::Event ev{
            last + static_cast<double>(draw(1 << 20)) / static_cast<double>(1 << 20) * span,
            next_pid++};
        q.push(ev.pid, ev.ready);
        ref.insert(std::upper_bound(ref.begin(), ref.end(), ev, less), ev);
      } else if (op < 6) {
        const CalendarQueue::Event& top = q.top();
        ASSERT_EQ(top.ready, ref.front().ready) << "seed " << seed << " step " << step;
        ASSERT_EQ(top.pid, ref.front().pid) << "seed " << seed << " step " << step;
      } else {
        const CalendarQueue::Event ev = q.pop();
        ASSERT_EQ(ev.ready, ref.front().ready) << "seed " << seed << " step " << step;
        ASSERT_EQ(ev.pid, ref.front().pid) << "seed " << seed << " step " << step;
        last = ev.ready;
        ref.erase(ref.begin());
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    q.clear();
  }
}

// ---------------------------------------------------------------------
// split_work

TEST(SplitWork, CoversEveryItemExactlyOnceAndBalanced) {
  for (const std::size_t total : {0u, 1u, 7u, 16u, 97u}) {
    for (const std::size_t jobs : {1u, 2u, 3u, 8u, 100u}) {
      std::vector<int> hits(total, 0);
      std::size_t min_sz = total + 1, max_sz = 0;
      std::size_t prev_end = 0;
      for (std::size_t w = 0; w < jobs; ++w) {
        const auto r = detail::split_work(total, jobs, w);
        ASSERT_LE(r.begin, r.end);
        if (w == 0) { EXPECT_EQ(r.begin, 0u); }
        EXPECT_EQ(r.begin, prev_end);  // contiguous, in order
        prev_end = r.end;
        min_sz = std::min(min_sz, r.end - r.begin);
        max_sz = std::max(max_sz, r.end - r.begin);
        for (std::size_t i = r.begin; i < r.end; ++i) ++hits[i];
      }
      EXPECT_EQ(prev_end, total);
      for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(hits[i], 1);
      if (total >= jobs) { EXPECT_LE(max_sz - min_sz, 1u); }  // balanced
    }
  }
}

TEST(SplitWork, OutOfRangeWorkerIsEmpty) {
  const auto r = detail::split_work(10, 3, 5);
  EXPECT_EQ(r.begin, r.end);
}

// ---------------------------------------------------------------------
// Batched golden equality

void expect_same_stats(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.total_time, b.total_time);  // exact: same arithmetic, same order
  EXPECT_EQ(a.total_copy_time, b.total_copy_time);
  EXPECT_EQ(a.total_sends, b.total_sends);
  EXPECT_EQ(a.total_elements, b.total_elements);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.max_link_busy, b.max_link_busy);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].label, b.phases[i].label);
    EXPECT_EQ(a.phases[i].start, b.phases[i].start);
    EXPECT_EQ(a.phases[i].end, b.phases[i].end);
    EXPECT_EQ(a.phases[i].sends, b.phases[i].sends);
    EXPECT_EQ(a.phases[i].elements, b.phases[i].elements);
    EXPECT_EQ(a.phases[i].hops, b.phases[i].hops);
    EXPECT_EQ(a.phases[i].copy_time, b.phases[i].copy_time);
  }
}

/// A mixed bag of planner programs, all compiled for one machine.
std::vector<CompiledProgram> planner_programs(const MachineParams& m) {
  const int half = m.n / 2;
  const int lg = 8;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  std::vector<CompiledProgram> out;
  out.push_back(compile(core::transpose_2d_stepwise(before, after, m), m));
  out.push_back(compile(core::transpose_2d_direct(before, after, m), m));
  out.push_back(compile(core::transpose_spt(before, after, m), m));
  out.push_back(compile(core::transpose_mpt(before, after, m), m));
  return out;
}

std::vector<const CompiledProgram*> pointers(const std::vector<CompiledProgram>& v) {
  std::vector<const CompiledProgram*> p;
  for (const auto& c : v) p.push_back(&c);
  return p;
}

TEST(RunTimingBatch, MatchesSingleRunsAcrossJobsAndBatchSizes) {
  const auto m = MachineParams::ipsc(4);
  const auto programs = planner_programs(m);
  const Engine engine(m);

  std::vector<RunResult> singles;
  for (const auto& c : programs) singles.push_back(engine.run_timing(c));

  // Whole batch under several worker counts, including more workers
  // than items.
  for (const int jobs : {1, 2, 3, 16}) {
    BatchScratch batch;
    const std::size_t ok = engine.run_timing_batch(pointers(programs), batch, jobs);
    EXPECT_EQ(ok, programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
      ASSERT_TRUE(batch.runs[i].ok);
      expect_same_stats(singles[i], batch.runs[i].result);
      EXPECT_TRUE(batch.runs[i].result.memory.empty());
    }
  }

  // Item-at-a-time batches through one reused BatchScratch.
  BatchScratch batch;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const CompiledProgram* one[] = {&programs[i]};
    EXPECT_EQ(engine.run_timing_batch(one, batch, 2), 1u);
    ASSERT_TRUE(batch.runs[0].ok);
    expect_same_stats(singles[i], batch.runs[0].result);
  }
}

TEST(RunTimingBatch, AgreesWithDataModeRun) {
  const auto m = MachineParams::cm(4);
  const int half = 2, lg = 8;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto prog = core::transpose_2d_direct(before, after, m);
  const auto init = core::transpose_initial_memory(before, m.n, prog.local_slots);
  const Engine engine(m);

  const auto data = engine.run(prog, init);
  const auto compiled = compile(prog, m);
  const CompiledProgram* items[] = {&compiled, &compiled, &compiled};
  BatchScratch batch;
  ASSERT_EQ(engine.run_timing_batch(items, batch, 2), 3u);
  for (const auto& run : {batch.runs[0], batch.runs[1], batch.runs[2]})
    expect_same_stats(data, run.result);
}

TEST(RunTimingBatch, ScratchReusePoisoning) {
  // big -> small -> big through one scratch: stale availability clocks,
  // packet-hop counters and queue residue from a larger run must never
  // leak into a later one.
  const auto big_m = MachineParams::ipsc(6);
  const auto small_m = MachineParams::ipsc(2);
  const auto big = planner_programs(big_m);
  const auto small = planner_programs(small_m);

  RunScratch scratch;
  RunResult out;
  const Engine big_engine(big_m);
  const Engine small_engine(small_m);
  const auto fresh_big = big_engine.run_timing(big[0]);
  const auto fresh_small = small_engine.run_timing(small[1]);

  big_engine.run_timing(big[0], scratch, out);
  expect_same_stats(fresh_big, out);
  small_engine.run_timing(small[1], scratch, out);
  expect_same_stats(fresh_small, out);
  big_engine.run_timing(big[0], scratch, out);
  expect_same_stats(fresh_big, out);
}

TEST(RunTimingBatch, MachineMismatchThrows) {
  const auto ipsc = MachineParams::ipsc(4);
  const auto cm = MachineParams::cm(4);
  const auto programs = planner_programs(ipsc);
  const Engine wrong(cm);
  BatchScratch batch;
  EXPECT_THROW(wrong.run_timing_batch(pointers(programs), batch, 1), ProgramError);
  EXPECT_THROW(wrong.run_timing_batch(pointers(programs), batch, 3), ProgramError);
}

// ---------------------------------------------------------------------
// Faults

/// One send of one element from `src` along `route`.
Program one_send(int n, word src, std::vector<int> route) {
  Program p;
  p.n = n;
  p.local_slots = 1;
  Phase ph;
  ph.label = "send";
  ph.sends.add(src, route, {{0}}, {{0}});
  p.phases.push_back(ph);
  return p;
}

TEST(RunTimingBatch, PermanentFaultFailsOnlyThatItem) {
  const int n = 2;
  auto m = MachineParams::nport(n, 1.0, 0.25);
  m.element_bytes = 1;
  // Node 0's dimension-0 link is down forever; dimension 1 is healthy.
  const fault::FaultModel fm(n, fault::FaultSpec{}.fail_link(0, 0));
  EngineOptions opt;
  opt.faults = &fm;
  const Engine engine(m, opt);

  const auto doomed = compile(one_send(n, 0, {0}), m);
  const auto healthy = compile(one_send(n, 0, {1}), m);
  const CompiledProgram* items[] = {&healthy, &doomed, &healthy};
  BatchScratch batch;
  for (const int jobs : {1, 3}) {
    EXPECT_EQ(engine.run_timing_batch(items, batch, jobs), 2u);
    EXPECT_TRUE(batch.runs[0].ok);
    EXPECT_FALSE(batch.runs[1].ok);
    EXPECT_FALSE(batch.runs[1].error.empty());
    EXPECT_TRUE(batch.runs[2].ok);
    expect_same_stats(batch.runs[0].result, batch.runs[2].result);
  }
  // The aborted run's queue residue must not corrupt a later run on the
  // same scratch slot (single worker funnels all items through one).
  EXPECT_EQ(engine.run_timing_batch(items, batch, 1), 2u);
  expect_same_stats(batch.runs[0].result, batch.runs[2].result);
}

TEST(RunTimingBatch, TransientFaultsMatchSingleRuns) {
  const int n = 4;
  auto m = MachineParams::nport(n, 1.0, 0.25);
  m.element_bytes = 1;
  const fault::FaultModel fm(
      n, fault::FaultSpec{}.fail_link(0, 0, {0.0, 10.0}).degrade_link(1, 1, 3.0));
  EngineOptions opt;
  opt.faults = &fm;
  const Engine engine(m, opt);

  const int half = 2, lg = 8;
  const cube::MatrixShape s{lg / 2, lg - lg / 2};
  const auto before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
  const auto after =
      cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  const auto compiled = compile(core::transpose_2d_stepwise(before, after, m), m);

  const auto single = engine.run_timing(compiled);
  const CompiledProgram* items[] = {&compiled, &compiled};
  BatchScratch batch;
  ASSERT_EQ(engine.run_timing_batch(items, batch, 2), 2u);
  expect_same_stats(single, batch.runs[0].result);
  expect_same_stats(single, batch.runs[1].result);
}

// ---------------------------------------------------------------------
// Tracing

TEST(RunTimingBatch, TraceSinkForcesSerialAndKeepsStreamsIdentical) {
  const auto m = MachineParams::ipsc(4);
  const auto programs = planner_programs(m);

  obs::TraceSink single_sink;
  EngineOptions single_opt;
  single_opt.trace = &single_sink;
  const Engine single_engine(m, single_opt);
  for (const auto& c : programs) single_engine.run_timing(c);

  obs::TraceSink batch_sink;
  EngineOptions batch_opt;
  batch_opt.trace = &batch_sink;
  const Engine batch_engine(m, batch_opt);
  BatchScratch batch;
  // jobs=8 requested, but the sink must serialise the batch.
  ASSERT_EQ(batch_engine.run_timing_batch(pointers(programs), batch, 8),
            programs.size());

  ASSERT_EQ(single_sink.events().size(), batch_sink.events().size());
  for (std::size_t i = 0; i < single_sink.events().size(); ++i)
    ASSERT_TRUE(single_sink.events()[i] == batch_sink.events()[i])
        << "trace diverges at event " << i;
}

}  // namespace
}  // namespace nct::sim
