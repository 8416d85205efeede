// nct_serve: drive a synthetic multi-tenant transpose workload through
// the serving core and report admission, cache and latency behaviour.
//
// Usage:
//   nct_serve [--requests N] [--epochs E] [--tenants T] [--jobs J]
//             [--tune-jobs J] [--capacity C] [--tenant-share F]
//             [--lg-min L] [--lg-max L] [--seed S] [--cache FILE]
//             [--faults] [--metrics]
//
// The workload (serve/workload.hpp) is a seeded deterministic mix of
// machines, layouts and optional fault scenarios.  Requests are split
// evenly over E epochs; each epoch is submitted (synchronous rejects
// are retried until admitted — the CLI is a closed-loop client), then
// drain()ed, and its serving row printed.  Because background tunes
// publish at each drain, the per-epoch cache hit ratio climbs: epoch 1
// is all cost-model serves, later epochs serve tuned plans.
//
// With --cache FILE the plan cache is loaded from / saved to an
// `nct_tune` store, so a second invocation starts hot.  --metrics
// appends the serve/* metrics report (the same shape the bench JSON
// carries).
//
// Exit status: 0 ok, 1 serving failure, 2 usage (incl. a malformed or
// out-of-range number).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "tune/cache.hpp"
#include "cli_number.hpp"

namespace {

using namespace nct;

// Flag ranges.  A job is a host thread; 2^20-element problems and a
// 2^24-request queue bound what one invocation can allocate.
constexpr int kMaxJobs = 256;
constexpr int kMinLg = 2;
constexpr int kMaxLg = 20;

int usage() {
  std::fprintf(stderr,
               "usage: nct_serve [--requests N] [--epochs E] [--tenants T] [--jobs J]\n"
               "                 [--tune-jobs J] [--capacity C] [--tenant-share F]\n"
               "                 [--lg-min L] [--lg-max L] [--seed S] [--cache FILE]\n"
               "                 [--faults] [--metrics]\n");
  return 2;
}

struct Args {
  std::uint64_t requests = 10000;
  int epochs = 4;
  std::uint32_t tenants = 4;
  int jobs = 0;
  int tune_jobs = 0;
  std::size_t capacity = 4096;
  double tenant_share = 1.0;
  int lg_min = 10;
  int lg_max = 12;
  std::uint64_t seed = 1;
  std::string cache_path;
  bool faults = false;
  bool metrics = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "nct_serve: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    const auto number = [&](const char* flag, auto lo, auto hi, auto& out) {
      return (v = value(flag)) != nullptr && cli::parse_number("nct_serve", flag, v, lo, hi, out);
    };
    if (s == "--requests") {
      if (!number("--requests", std::uint64_t{1}, std::uint64_t{1} << 40, a.requests))
        return false;
    } else if (s == "--epochs") {
      if (!number("--epochs", 1, 1 << 20, a.epochs)) return false;
    } else if (s == "--tenants") {
      if (!number("--tenants", std::uint32_t{1}, std::uint32_t{1} << 16, a.tenants)) return false;
    } else if (s == "--jobs") {
      if (!number("--jobs", 0, kMaxJobs, a.jobs)) return false;
    } else if (s == "--tune-jobs") {
      if (!number("--tune-jobs", 0, kMaxJobs, a.tune_jobs)) return false;
    } else if (s == "--capacity") {
      if (!number("--capacity", std::size_t{1}, std::size_t{1} << 24, a.capacity)) return false;
    } else if (s == "--tenant-share") {
      if (!number("--tenant-share", 0.0, 1.0, a.tenant_share)) return false;
    } else if (s == "--lg-min") {
      if (!number("--lg-min", kMinLg, kMaxLg, a.lg_min)) return false;
    } else if (s == "--lg-max") {
      if (!number("--lg-max", kMinLg, kMaxLg, a.lg_max)) return false;
    } else if (s == "--seed") {
      if (!number("--seed", std::uint64_t{0}, ~std::uint64_t{0}, a.seed)) return false;
    } else if (s == "--cache") {
      if ((v = value("--cache")) == nullptr) return false;
      a.cache_path = v;
    } else if (s == "--faults") {
      a.faults = true;
    } else if (s == "--metrics") {
      a.metrics = true;
    } else {
      std::fprintf(stderr, "nct_serve: unknown option '%s'\n", s.c_str());
      return false;
    }
  }
  if (a.lg_min > a.lg_max) {
    std::fprintf(stderr, "nct_serve: --lg-min %d exceeds --lg-max %d\n", a.lg_min, a.lg_max);
    return false;
  }
  return true;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage();

  tune::PlanCache cache;
  if (!a.cache_path.empty()) {
    const std::size_t loaded = cache.load_file(a.cache_path);
    std::printf("cache: %zu entr%s loaded from %s\n", loaded, loaded == 1 ? "y" : "ies",
                a.cache_path.c_str());
  }

  serve::ServeOptions opt;
  opt.queue_capacity = a.capacity;
  opt.tenant_share = a.tenant_share;
  opt.jobs = a.jobs;
  opt.tune_jobs = a.tune_jobs;
  opt.cache = &cache;
  serve::Server server(opt);

  serve::WorkloadOptions wopt;
  wopt.lg_min = a.lg_min;
  wopt.lg_max = a.lg_max;
  wopt.faults = a.faults;
  wopt.tenants = a.tenants;
  wopt.seed = a.seed;
  serve::Workload workload(wopt);

  std::printf("workload: %" PRIu64 " requests, %d epoch%s, %zu distinct problems, "
              "%u tenant%s%s\n",
              a.requests, a.epochs, a.epochs == 1 ? "" : "s",
              workload.distinct_problems(), a.tenants, a.tenants == 1 ? "" : "s",
              a.faults ? ", fault mix" : "");
  std::printf("%-7s %-10s %-10s %-10s %-9s %-12s %-12s\n", "epoch", "served",
              "infeasible", "hits", "ratio", "p50_us", "p99_us");

  std::uint64_t remaining = a.requests;
  for (int e = 0; e < a.epochs; ++e) {
    const std::uint64_t quota =
        remaining / static_cast<std::uint64_t>(a.epochs - e);
    remaining -= quota;
    for (std::uint64_t k = 0; k < quota; ++k) {
      serve::Request r = workload.next();
      for (;;) {
        const serve::Admission adm = server.submit(r);
        if (adm.admitted) break;
        if (adm.reason == serve::RejectReason::queue_full ||
            adm.reason == serve::RejectReason::tenant_over_share) {
          std::this_thread::yield();  // closed loop: wait out the backpressure
          continue;
        }
        std::fprintf(stderr, "nct_serve: request rejected (%s)\n",
                     serve::reject_reason_name(adm.reason));
        return 1;
      }
    }
    const std::vector<serve::Response> responses = server.drain();

    std::uint64_t infeasible = 0, hits = 0;
    std::vector<double> lat;
    lat.reserve(responses.size());
    for (const serve::Response& r : responses) {
      if (r.status == serve::ServeStatus::infeasible) ++infeasible;
      if (r.cache_hit) ++hits;
      lat.push_back(r.service_seconds);
    }
    const double ratio =
        responses.empty() ? 0.0
                          : static_cast<double>(hits) / static_cast<double>(responses.size());
    std::printf("%-7d %-10zu %-10" PRIu64 " %-10" PRIu64 " %-9.3f %-12.1f %-12.1f\n",
                e + 1, responses.size(), infeasible, hits, ratio,
                percentile(lat, 0.50) * 1e6, percentile(lat, 0.99) * 1e6);
  }

  server.stop();
  const serve::ServerStats st = server.stats();
  std::printf("totals: %" PRIu64 " served in %" PRIu64 " cycle%s / %" PRIu64
              " batch%s (largest coalesce %" PRIu64 "), hit ratio %.3f\n",
              st.completed, st.cycles, st.cycles == 1 ? "" : "s", st.batches,
              st.batches == 1 ? "" : "es", st.coalesced_max, st.hit_ratio());
  std::printf("programs: %" PRIu64 " hits / %" PRIu64 " misses, hit ratio %.3f, %" PRIu64
              " evictions, %" PRIu64 " bytes cached\n",
              st.program_hits, st.program_misses, st.program_hit_ratio(), st.program_evictions,
              st.program_bytes);
  std::printf("tunes:  %" PRIu64 " enqueued, %" PRIu64 " completed, %" PRIu64
              " published, %" PRIu64 " failed\n",
              st.tunes_enqueued, st.tunes_completed, st.tunes_published, st.tunes_failed);
  const tune::CacheStats cs = cache.stats();
  std::printf("cache:  %zu entries, %" PRIu64 " hits / %" PRIu64 " misses, %" PRIu64
              " evictions, %" PRIu64 " loaded\n",
              cache.size(), cs.hits, cs.misses, cs.evictions, cs.loads);

  if (a.metrics) std::printf("\n%s", server.metrics().format().c_str());

  if (!a.cache_path.empty() && !cache.save_file(a.cache_path)) {
    std::fprintf(stderr, "nct_serve: cannot write %s\n", a.cache_path.c_str());
    return 1;
  }
  return 0;
}
