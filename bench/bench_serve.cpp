// Serving-layer throughput and latency: a closed-loop client drives the
// deterministic synthetic workload (serve/workload.hpp) through the
// multi-tenant server and reports sustained requests/s plus the
// p50/p95/p99 service latency.
//
// The stream is the one cell of a bench::measure() schedule
// (measure.hpp): each call submits a share of it and drain()s.  The
// untimed warm-up call serves cost-model plans (all misses) while the
// background tuner searches; the timed rounds serve the tuned plans
// (nct_serve's per-epoch table shows that warm-up).  The gated "Serve
// throughput" table carries one `total` row: requests_per_s
// (higher-better) and p99_us (lower-better) are medians over the timed
// drains, one per round, and feed tools/check_bench_regression.py; its
// program_hit_ratio column is the share of slots served from the
// compiled-program cache (see serve/program_cache.hpp):
//
//   check_bench_regression.py BENCH_bench_serve.json baseline.json \
//       --table "Serve throughput" --columns requests_per_s:+ p99_us:-
//
// Extra driver flags (stripped with the shared --jobs/--json/--trace):
//   --requests=N   total requests to push through (default 1,000,000)
//   --tenants=T    tenants cycling through the stream (default 4)
//   --seed=S       workload stream seed (default 1)
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace {

using namespace nct;

struct ServeArgs {
  std::uint64_t requests = 1000000;
  std::uint32_t tenants = 4;
  std::uint64_t seed = 1;
};

ServeArgs& serve_args() {
  static ServeArgs args;
  return args;
}

void parse_serve_args(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--requests=", 11) == 0) {
      serve_args().requests = std::strtoull(a + 11, nullptr, 10);
    } else if (std::strncmp(a, "--tenants=", 10) == 0) {
      serve_args().tenants = static_cast<std::uint32_t>(std::strtoul(a + 10, nullptr, 10));
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      serve_args().seed = std::strtoull(a + 7, nullptr, 10);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

/// Submit with closed-loop backpressure: synchronous rejects spin-wait
/// the client until the dispatcher frees queue slots.
void submit_blocking(serve::Server& server, serve::Request r) {
  for (;;) {
    const serve::Admission adm = server.submit(r);
    if (adm.admitted) return;
    if (adm.reason != serve::RejectReason::queue_full &&
        adm.reason != serve::RejectReason::tenant_over_share)
      throw std::runtime_error(std::string("serve rejected: ") +
                               serve::reject_reason_name(adm.reason));
    std::this_thread::yield();
  }
}

void print_series() {
  const ServeArgs& args = serve_args();

  serve::ServeOptions opt;
  opt.jobs = bench::sweep_jobs();
  serve::Server server(opt);

  serve::WorkloadOptions wopt;
  wopt.faults = true;
  wopt.tenants = args.tenants;
  wopt.seed = args.seed;
  serve::Workload workload(wopt);

  // The warm-up and the timed rounds split the stream evenly; the
  // warm-up also takes the remainder.  A round drains more than once
  // only if one drain lasts under bench::kMinSampleSeconds.
  constexpr std::uint64_t kDrains = bench::kRounds + 1;
  const std::uint64_t per_drain = std::max<std::uint64_t>(1, args.requests / kDrains);
  std::vector<std::vector<double>> latency;  // service seconds, per drain
  const bench::Timing timing = bench::measure({[&] {
    const std::uint64_t quota = per_drain + (latency.empty() ? args.requests % kDrains : 0);
    for (std::uint64_t k = 0; k < quota; ++k) submit_blocking(server, workload.next());
    std::vector<double>& lat = latency.emplace_back();
    for (const serve::Response& r : server.drain()) lat.push_back(r.service_seconds);
  }}).front();
  server.stop();
  const serve::ServerStats st = server.stats();

  std::vector<double> p50, p95, p99;
  for (std::size_t d = 1; d < latency.size(); ++d) {  // drain 0 is the warm-up
    p50.push_back(bench::quantile(latency[d], 0.50));
    p95.push_back(bench::quantile(latency[d], 0.95));
    p99.push_back(bench::quantile(latency[d], 0.99));
  }
  const bench::Spread rate = timing.rate(static_cast<double>(per_drain));
  const bench::Spread tail = bench::spread(p99);
  bench::Table total({"workload", "requests", "requests_per_s", "requests_per_s_iqr", "p50_us",
                      "p95_us", "p99_us", "p99_us_iqr", "hit_ratio", "program_hit_ratio",
                      "batches", "coalesced_max"});
  total.row({"total", std::to_string(st.completed), bench::num(rate.median, 0),
             bench::num(rate.iqr, 0), bench::us(bench::spread(p50).median),
             bench::us(bench::spread(p95).median), bench::us(tail.median), bench::us(tail.iqr),
             bench::num(st.hit_ratio(), 3), bench::num(st.program_hit_ratio(), 3),
             std::to_string(st.batches), std::to_string(st.coalesced_max)});
  total.print("Serve throughput");

  bench::recorded_metrics().push_back(
      bench::RecordedMetrics{"serve: synthetic multi-tenant stream", server.metrics()});
}

void bench_roundtrip(benchmark::State& state) {
  serve::ServeOptions opt;
  opt.queue_capacity = 8192;
  serve::Server server(opt);
  serve::WorkloadOptions wopt;
  wopt.seed = 7;
  serve::Workload workload(wopt);
  const std::size_t kBatch = 1024;
  std::uint64_t served = 0;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kBatch; ++k) submit_blocking(server, workload.next());
    served += server.drain().size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
}
BENCHMARK(bench_roundtrip)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  parse_serve_args(argc, argv);
  nct::bench::parse_sweep_args(argc, argv);
  if (nct::bench::sweep_options().trace_path.empty())
    nct::bench::sweep_options().trace_path = nct::bench::trace_path_for(argv[0]);
  print_series();
  if (nct::bench::sweep_options().json)
    nct::bench::write_recorded_json(nct::bench::json_path_for(argv[0]));
  return nct::bench::run_benchmarks(argc, argv);
}
