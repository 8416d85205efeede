// serve_stream: a closed loop in which one client submits waves of 256
// requests -- a head request, then 255 from serve::Workload (faults on,
// 4 tenants, the run's seed) -- and then calls drain().  Many small
// problems (n <= 6) make admission, resolution, coalescing and the
// per-cycle re-planning and compiling dominate; faulted requests run
// beside healthy ones, and the background tunes of the cold misses finish
// in the set-up wave.  The shard layer does nothing here.  The loop is
// closed because the server hands out responses only at drain().
//
// Every wave opens with a head request, a larger healthy problem.  The
// client waits until the dispatcher has taken it, then submits the other
// 255 requests, which queue while the head's cycle runs and are served
// together in the next cycle.  Without the head, the dispatcher takes
// whatever has arrived when it wakes, so how a wave splits into cycles --
// and how much it coalesces -- follows the host's thread wake-up latency:
// identical code then served anywhere from 12k to 34k requests/s.
#include <cstdio>
#include <malloc.h>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "tune/layouts.hpp"
#include "tune/tuner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace nct;

constexpr std::size_t kWave = 256;
/// Per-request sample capacity; a run ends early when it is reached.
constexpr std::size_t kMaxSamples = std::size_t{1} << 21;

/// The head of each wave: a healthy CM 8-cube transpose of 2^14
/// elements, whose cycle lasts several times as long as submitting the
/// rest of the wave.
serve::Request head_request() {
  const tune::SpecPair specs = tune::fig_layout_2d(14, 8);
  serve::Request r;
  r.machine = sim::MachineParams::cm(8);
  r.before = specs.first;
  r.after = specs.second;
  return r;
}

serve::ServeOptions serve_options(tune::PlanCache* cache) {
  serve::ServeOptions o;
  o.jobs = 1;
  o.tune_jobs = 1;
  o.cache = cache;
  return o;
}

struct State {
  tune::PlanCache cache;  ///< the server's plan cache, outlives the server.
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Workload> workload;
};

struct Wave {
  double seconds = 0.0;
  double drain_seconds = 0.0;
  std::uint64_t cycles = 0;  ///< serving cycles the wave took; 2 unless the head did not lead.
  std::vector<serve::Request> requests;
  std::unordered_map<serve::RequestId, std::size_t> index;  ///< admission id -> request.
  std::vector<serve::Response> responses;
};

/// Submits one wave -- the head request, then, once the dispatcher has
/// taken it, the rest -- and drains it.  Only submit(), the wait for the
/// head and drain() are timed; the requests are drawn beforehand.
/// `admit_s` (traced) collects the time of each submit() call.
Wave run_wave(State& st, Report& rep, Spans& spans, std::vector<double>* admit_s) {
  Wave w;
  w.requests.reserve(kWave);
  w.requests.push_back(head_request());
  while (w.requests.size() < kWave) w.requests.push_back(st.workload->next());
  const std::uint64_t cycles0 = st.server->stats().cycles;
  const double t0 = now_s();
  {
    const auto wave = spans.scope("serve.wave");
    {
      const auto s = spans.scope("serve.submit");
      for (std::size_t i = 0; i < kWave; ++i) {
        const double a0 = admit_s != nullptr ? now_s() : 0.0;
        const serve::Admission adm = st.server->submit(w.requests[i]);
        if (admit_s != nullptr) admit_s->push_back(now_s() - a0);
        if (rep.expect(adm.admitted, std::string("serve: rejected (") +
                                         serve::reject_reason_name(adm.reason) + ")"))
          w.index.emplace(adm.id, i);
        if (i == 0)
          while (st.server->stats().queue_depth != 0) std::this_thread::yield();
      }
    }
    const double d0 = now_s();
    {
      const auto s = spans.scope("serve.drain");
      w.responses = st.server->drain();
    }
    w.drain_seconds = now_s() - d0;
  }
  w.seconds = now_s() - t0;
  w.cycles = st.server->stats().cycles - cycles0;
  return w;
}

std::unique_ptr<State> make_state(const Args& args, Report& rep) {
  auto st = std::make_unique<State>();
  // The head's plan is tuned into the cache before the server starts, as
  // a server loading a stored plan set would have it.  A background tune
  // of this larger problem would overlap the warm-up cycles by chance and
  // make the peak resident size vary from run to run.
  const serve::Request head = head_request();
  tune::TuneOptions topt;
  topt.jobs = 1;
  topt.cache = &st->cache;
  tune::Tuner(head.machine, topt).tune(head.before, head.after);
  st->server = std::make_unique<serve::Server>(serve_options(&st->cache));
  serve::WorkloadOptions wopt;
  wopt.faults = true;
  wopt.tenants = 4;
  wopt.seed = args.seed;
  st->workload = std::make_unique<serve::Workload>(wopt);
  Spans off;
  run_wave(*st, rep, off, nullptr);  // warm-up: cold misses and their background tunes
  return st;
}

/// Standalone reference for each distinct (problem, plan): the plan
/// rebuilt, compiled and run by a plain sim::Engine outside the server.
class Checker {
 public:
  struct Expected {
    bool feasible = false;
    double seconds = 0.0;
    std::size_t packets = 0;
  };

  const Expected& expected(const serve::Request& r, const tune::Candidate& plan) {
    const auto key = std::make_tuple(
        tune::make_key(r.machine, r.before, r.after, r.faults.empty() ? nullptr : &r.faults, {})
            .hash,
        static_cast<int>(plan.family), plan.packet_elements, static_cast<int>(plan.buffer_mode),
        plan.b_copy_elements);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    Expected e;
    try {
      tune::TuneOptions topt;
      topt.faults = r.faults.empty() ? nullptr : &r.faults;
      const tune::Tuner tuner(r.machine, topt);
      const sim::CompiledProgram compiled =
          sim::compile(tuner.build(r.before, r.after, plan), r.machine);
      fault::FaultModel model;
      if (!r.faults.empty()) model = fault::FaultModel(r.machine.n, r.faults);
      sim::EngineOptions eopt;
      eopt.faults = model.empty() ? nullptr : &model;
      e.seconds = sim::Engine(r.machine, eopt).run_timing(compiled).total_time;
      e.packets = total_packets(compiled);
      e.feasible = true;
    } catch (const std::exception&) {
      // The plan cannot run on this (faulted) machine: the server must
      // answer "infeasible", which is then the correct output.
    }
    return memo_.emplace(key, e).first->second;
  }

  std::size_t distinct() const { return memo_.size(); }

 private:
  using Key = std::tuple<std::uint64_t, int, cube::word, int, cube::word>;
  std::map<Key, Expected> memo_;
};

}  // namespace

void run_serve_stream(const Args& args, Report& rep, Spans& spans) {
  // One malloc arena for every thread.  Each set-up starts a server whose
  // threads pick up arenas left by the previous one's, and which arena
  // held what moved peak_rss_mb by +-6% between runs.  The timed waves
  // allocate almost only on the dispatcher thread.
  mallopt(M_ARENA_MAX, 1);
  // Per-request latencies as floats in storage touched before the set-ups
  // (8 MiB): a buffer that filled as requests were served would make
  // peak_rss_mb follow the throughput of the run.
  std::vector<float> latency(kMaxSamples), queue, exec;
  latency.clear();
  if (args.trace) queue.reserve(kMaxSamples), exec.reserve(kMaxSamples);

  const auto st = timed_setups(11, rep, [&] { return make_state(args, rep); });
  const ThreadSampler threads(args.trace);
  Checker checker;
  const serve::ServerStats before = st->server->stats();

  std::vector<double> admit_s, drain_ms;
  std::vector<double> wave_plain, wave_traced;
  double packets = 0.0;
  std::size_t served = 0, split_waves = 0;
  const double deadline = now_s() + args.seconds;
  for (int n = 0; (n < 2 || now_s() < deadline) && latency.size() + kWave <= kMaxSamples; ++n) {
    // A traced run records spans on every other wave; the untraced waves
    // between them give the tracing overhead.
    spans.on = args.trace && n % 2 == 1;
    const Wave w = run_wave(*st, rep, spans, spans.on ? &admit_s : nullptr);
    rep.attempted += kWave;
    (spans.on ? wave_traced : wave_plain).push_back(w.seconds);
    drain_ms.push_back(w.drain_seconds * 1e3);
    if (w.cycles != 2) ++split_waves;

    for (const serve::Response& r : w.responses) {
      const auto it = w.index.find(r.id);
      if (!rep.expect(it != w.index.end(), "serve: response for an unknown id")) continue;
      const Checker::Expected& e = checker.expected(w.requests[it->second], r.plan);
      const bool ok = r.status == serve::ServeStatus::ok;
      if (!rep.expect(ok == e.feasible && (!ok || r.simulated_seconds == e.seconds),
                      "serve: request " + std::to_string(r.id) + (ok ? " ok, " : " infeasible, ") +
                          "simulated " + std::to_string(r.simulated_seconds) +
                          "; standalone " + (e.feasible ? "ok, " : "infeasible, ") +
                          std::to_string(e.seconds)))
        continue;
      ++served;
      packets += static_cast<double>(e.packets);
      latency.push_back(static_cast<float>(r.service_seconds));
      if (!args.trace) continue;
      queue.push_back(static_cast<float>(r.queue_seconds));
      exec.push_back(static_cast<float>(r.service_seconds - r.queue_seconds));
    }
    rep.expect(w.responses.size() == kWave, "serve: drain returned " +
                                                std::to_string(w.responses.size()) +
                                                " responses for a wave of 256");
  }
  spans.on = false;
  const serve::ServerStats after = st->server->stats();

  // The run's work over a busy time of (waves x median wave time): a
  // burst of host stalls in a minority of waves does not move the rates.
  const double busy = median(wave_plain) * static_cast<double>(drain_ms.size());
  const double p50 = median(latency), p99 = quantile(latency, 0.99);
  rep.e2e("latency_ms", p50 * 1e3, "ms");
  rep.e2e("items_per_s", static_cast<double>(served) / busy, "1/s");
  rep.e2e("packets_per_s", packets / busy, "1/s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  // The requests of one wave are served in one cycle and share its stalls,
  // so the p99 rests on about 1% of the waves, not of the requests.
  std::printf("serve_stream: %zu requests in %zu waves, latency p99 %.3f ms, "
              "%zu waves not served in 2 cycles, %zu distinct problem plans checked, "
              "threads: client + dispatcher + tuner\n",
              served, drain_ms.size(), p99 * 1e3, split_waves, checker.distinct());

  const auto delta = [&](std::uint64_t serve::ServerStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double batches = delta(&serve::ServerStats::batches);
  const double hits = delta(&serve::ServerStats::cache_hits);
  const double lookups = hits + delta(&serve::ServerStats::cache_misses);
  rep.layer("serve.latency_ms.p99", p99 * 1e3, "ms");
  rep.layer("serve.admit_us", median(admit_s) * 1e6, "us");
  rep.layer("serve.queue_ms.p50", median(queue) * 1e3, "ms");
  rep.layer("serve.queue_ms.p99", quantile(queue, 0.99) * 1e3, "ms");
  rep.layer("serve.exec_ms.p50", median(exec) * 1e3, "ms");
  rep.layer("serve.exec_ms.p99", quantile(exec, 0.99) * 1e3, "ms");
  rep.layer("serve.drain_ms", median(drain_ms), "ms");
  rep.layer("serve.cycles", delta(&serve::ServerStats::cycles), "count");
  rep.layer("serve.batches", batches, "count");
  rep.layer("serve.batch_occupancy",
            batches > 0 ? delta(&serve::ServerStats::completed) / batches : 0.0, "ratio");
  rep.layer("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  rep.layer("serve.tunes_completed", delta(&serve::ServerStats::tunes_completed), "count");
  rep.layer("serve.infeasible", delta(&serve::ServerStats::infeasible), "count");
  rep.layer("serve.rejected",
            delta(&serve::ServerStats::rejected_full) + delta(&serve::ServerStats::rejected_share) +
                delta(&serve::ServerStats::rejected_stopped) +
                delta(&serve::ServerStats::rejected_bad),
            "count");
  rep.layer("trace.overhead_ms", (median(wave_traced) - median(wave_plain)) * 1e3, "ms");
  rep.layer("threads.peak", threads.peak(), "count");
}

}  // namespace perfbench
