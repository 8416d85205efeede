// tune_cold: cold tune::Tuner::tune searches on a fresh PlanCache
// (jobs = 2) over the iPSC and CM models at n in {6, 8, 10} with
// fig_layout_2d at 2^14 and 2^16 elements -- 12 problems per pass, in
// the seed's order -- each followed by a warm cache-hit replay.  Planning
// and compiling run on many medium programs rather than one huge one,
// and Space plus run_timing_batch do most of the work; the shard and
// serve layers do nothing here.
#include <cstdio>
#include <limits>
#include <malloc.h>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "sim/batch.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "tune/layouts.hpp"
#include "tune/tuner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace nct;

constexpr int kJobs = 2;

struct Problem {
  std::string name;
  sim::MachineParams machine;
  tune::SpecPair specs;
  // The first cold search's winner, which every later search and the
  // traced reconstruction must reproduce exactly.
  tune::Candidate choice;
  double measured = 0.0;
  bool have_reference = false;
};

struct State {
  std::vector<Problem> problems;  ///< in the seed's order.
};

tune::TuneOptions tune_options(tune::PlanCache* cache) {
  tune::TuneOptions o;
  o.jobs = kJobs;
  o.cache = cache;
  return o;
}

struct Pass {
  std::vector<double> cold_s, warm_s;
  tune::CacheStats cache;
};

/// One pass over every problem on a fresh cache: a cold search, then a
/// warm replay that must hit the cache and return the same plan.
Pass run_pass(State& st, Report& rep, Spans& spans, bool counted) {
  Pass out;
  tune::PlanCache cache;
  for (Problem& p : st.problems) {
    if (counted) ++rep.attempted;
    try {
      double t0 = now_s();
      tune::TunedPlan cold, warm;
      {
        const auto s = spans.scope("tune.search");
        cold = tune::Tuner(p.machine, tune_options(&cache)).tune(p.specs.first, p.specs.second);
      }
      out.cold_s.push_back(now_s() - t0);
      t0 = now_s();
      {
        const auto s = spans.scope("tune.warm");
        warm = tune::Tuner(p.machine, tune_options(&cache)).tune(p.specs.first, p.specs.second);
      }
      out.warm_s.push_back(now_s() - t0);

      if (!p.have_reference) {
        p.choice = cold.choice;
        p.measured = cold.measured_seconds;
        p.have_reference = true;
      }
      rep.expect(!cold.from_cache && warm.from_cache, "tune " + p.name + ": cache hit/miss wrong");
      rep.expect(cold.choice == p.choice && cold.measured_seconds == p.measured &&
                     warm.choice == p.choice && warm.measured_seconds == p.measured,
                 "tune " + p.name + ": winner differs from the first search (" +
                     cold.choice.describe() + " " + std::to_string(cold.measured_seconds) + ")");
    } catch (const std::exception& e) {
      rep.fail("tune " + p.name + ": " + e.what());
    }
  }
  out.cache = cache.stats();
  return out;
}

std::unique_ptr<State> make_state(const Args& args, Report& rep) {
  auto st = std::make_unique<State>();
  for (const bool cm : {false, true})
    for (const int n : {6, 8, 10})
      for (const int lg : {14, 16}) {
        Problem p;
        p.name = std::string(cm ? "CM" : "iPSC") + " n=" + std::to_string(n) + " 2^" +
                 std::to_string(lg);
        p.machine = cm ? sim::MachineParams::cm(n) : sim::MachineParams::ipsc(n);
        p.specs = tune::fig_layout_2d(lg, n);
        st->problems.push_back(std::move(p));
      }
  Rng rng{args.seed};
  for (std::size_t i = st->problems.size(); i > 1; --i)
    std::swap(st->problems[i - 1], st->problems[rng.below(i)]);
  Spans off;
  run_pass(*st, rep, off, false);  // warm-up pass; also fixes the reference winners
  return st;
}

struct Rebuild {
  std::size_t candidates = 0;
  std::size_t infeasible = 0;
  double packets = 0.0;  ///< simulated packets of one pass's measurements.
};

/// Rebuilds every search from its parts -- Space, Tuner::build,
/// sim::compile and one run_timing_batch -- and checks that the argmin
/// is the winner Tuner::tune returned.  Traced runs time each part.
Rebuild rebuild(State& st, Report& rep, Spans& spans) {
  Rebuild out;
  for (const Problem& p : st.problems) {
    const auto top = spans.scope("tune.rebuild");
    std::vector<tune::Candidate> candidates;
    {
      const auto s = spans.scope("tune.space");
      candidates = tune::Space(p.specs.first, p.specs.second, p.machine).candidates();
    }
    const tune::Tuner tuner(p.machine, tune_options(nullptr));
    std::vector<sim::CompiledProgram> compiled;
    std::vector<std::size_t> slot;
    compiled.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      try {
        sim::Program program;
        {
          const auto s = spans.scope("tune.build");
          program = tuner.build(p.specs.first, p.specs.second, candidates[i]);
        }
        const auto s = spans.scope("tune.compile");
        compiled.push_back(sim::compile(program, p.machine));
        slot.push_back(i);
      } catch (const fault::FaultError&) {
        // Infeasible, as in Tuner::tune: it loses to every feasible candidate.
      }
    }
    std::vector<const sim::CompiledProgram*> progs;
    for (const sim::CompiledProgram& c : compiled) progs.push_back(&c);
    sim::BatchScratch batch;
    {
      const auto s = spans.scope("sim.batch");
      sim::Engine(p.machine).run_timing_batch(progs, batch, kJobs);
    }
    std::size_t best = candidates.size();
    double best_t = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < progs.size(); ++k) {
      if (!batch.runs[k].ok) continue;
      if (best == candidates.size() || batch.runs[k].result.total_time < best_t) {
        best = slot[k];
        best_t = batch.runs[k].result.total_time;
      }
      out.packets += static_cast<double>(total_packets(*progs[k]));
    }
    out.candidates += candidates.size();
    out.infeasible += candidates.size() - progs.size();
    for (std::size_t k = 0; k < progs.size(); ++k) out.infeasible += batch.runs[k].ok ? 0 : 1;
    rep.expect(best < candidates.size() && candidates[best] == p.choice && best_t == p.measured,
               "tune " + p.name + ": rebuilt search disagrees with Tuner::tune");
  }
  return out;
}

}  // namespace

void run_tune_cold(const Args& args, Report& rep, Spans& spans) {
  // As many malloc arenas as threads that allocate at once.  Every search
  // starts new worker threads, and with more arenas than that, which
  // arenas held which candidates moved peak_rss_mb by +-10% between runs;
  // with one arena the two compile threads contend and searches slowed.
  mallopt(M_ARENA_MAX, kJobs);
  const auto st = timed_setups(3, rep, [&] { return make_state(args, rep); });
  const ThreadSampler threads(args.trace);

  // Whole passes until the deadline; a traced run records spans on every
  // other pass, so the untraced passes between them give the overhead.
  std::vector<double> cold, warm, cold_traced;
  tune::CacheStats cache;
  const double deadline = now_s() + args.seconds;
  for (int n = 0; n < 2 || now_s() < deadline; ++n) {
    spans.on = args.trace && n % 2 == 1;
    const Pass pass = run_pass(*st, rep, spans, true);
    auto& into = spans.on ? cold_traced : cold;
    into.insert(into.end(), pass.cold_s.begin(), pass.cold_s.end());
    warm.insert(warm.end(), pass.warm_s.begin(), pass.warm_s.end());
    cache = pass.cache;
  }
  spans.on = args.trace;
  const Rebuild rb = rebuild(*st, rep, spans);
  spans.on = false;

  const std::size_t problems = st->problems.size();
  const double passes = static_cast<double>(cold.size()) / static_cast<double>(problems);
  // The problems' costs differ a hundredfold, so the median of the mix
  // would be the slowest sample of whichever problem sits in the middle.
  // The typical search is the mean of the per-problem medians instead
  // (`cold` holds whole passes, problem k at every index k mod problems).
  double typical = 0.0;
  for (std::size_t k = 0; k < problems; ++k) {
    std::vector<double> times;
    for (std::size_t i = k; i < cold.size(); i += problems) times.push_back(cold[i]);
    typical += median(times) / static_cast<double>(problems);
  }
  rep.e2e("latency_ms", typical * 1e3, "ms");
  rep.e2e("items_per_s", static_cast<double>(cold.size()) / sum(cold), "1/s");
  rep.e2e("packets_per_s", rb.packets * passes / sum(cold), "1/s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  std::printf("tune_cold: %zu cold searches (%g passes of %zu problems, %zu candidates each), "
              "jobs=%d\n",
              cold.size(), passes, problems, rb.candidates, kJobs);

  const auto per_pass = [&](const char* name) {
    return sum(spans.durations_ms(name));
  };
  rep.layer("tune.search_ms", median(spans.durations_ms("tune.search")), "ms");
  rep.layer("tune.space_ms", per_pass("tune.space"), "ms");
  rep.layer("tune.build_ms", per_pass("tune.build"), "ms");
  rep.layer("tune.compile_ms", per_pass("tune.compile"), "ms");
  rep.layer("sim.batch_ms", per_pass("sim.batch"), "ms");
  rep.layer("tune.rebuild_self_ms", sum(spans.self_ms("tune.rebuild")), "ms");
  rep.layer("tune.candidates", static_cast<double>(rb.candidates), "count");
  rep.layer("tune.infeasible", static_cast<double>(rb.infeasible), "count");
  rep.layer("tune.warm_ms", median(warm) * 1e3, "ms");
  rep.layer("tune.cache_hits", static_cast<double>(cache.hits), "count");
  rep.layer("tune.cache_misses", static_cast<double>(cache.misses), "count");
  rep.layer("trace.overhead_ms", (median(cold_traced) - median(cold)) * 1e3, "ms");
  rep.layer("threads.peak", threads.peak(), "count");
}

}  // namespace perfbench
