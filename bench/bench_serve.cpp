// Serving-layer throughput and latency: a closed-loop client drives the
// deterministic synthetic workload (serve/workload.hpp) through the
// multi-tenant server and reports sustained requests/s plus the
// p50/p95/p99 service latency.
//
// The run is split into epochs (drain() between them), so the printed
// per-epoch series shows the plan cache warming up: epoch 1 serves
// cost-model plans (all misses), later epochs serve background-tuned
// plans (hit ratio climbs toward 1).  The gated "Serve throughput"
// table carries one `total` row — requests_per_s (higher-better) and
// p99_us (lower-better) feed tools/check_bench_regression.py; its
// program_hit_ratio column is the share of slots served from the
// compiled-program cache (see serve/program_cache.hpp):
//
//   check_bench_regression.py BENCH_bench_serve.json baseline.json \
//       --table "Serve throughput" --columns requests_per_s:+ p99_us:-
//
// Extra driver flags (stripped with the shared --jobs/--json/--trace):
//   --requests=N   total requests to push through (default 1,000,000)
//   --epochs=E     drain() epochs the stream is split into (default 8)
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
  int epochs = 8;
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
    } else if (std::strncmp(a, "--epochs=", 9) == 0) {
      serve_args().epochs = std::atoi(a + 9);
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

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double now_s() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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
  const int epochs = args.epochs < 1 ? 1 : args.epochs;

  serve::ServeOptions opt;
  opt.jobs = bench::sweep_jobs();
  serve::Server server(opt);

  serve::WorkloadOptions wopt;
  wopt.faults = true;
  wopt.tenants = args.tenants;
  wopt.seed = args.seed;
  serve::Workload workload(wopt);

  bench::Table per_epoch(
      {"epoch", "requests", "requests_per_s", "p50_us", "p95_us", "p99_us", "hit_ratio"});
  std::vector<double> all_lat;
  all_lat.reserve(args.requests);
  std::uint64_t total_served = 0;
  const double t0 = now_s();

  std::uint64_t remaining = args.requests;
  for (int e = 0; e < epochs; ++e) {
    const std::uint64_t quota = remaining / static_cast<std::uint64_t>(epochs - e);
    remaining -= quota;
    const double e0 = now_s();
    for (std::uint64_t k = 0; k < quota; ++k) submit_blocking(server, workload.next());
    const std::vector<serve::Response> responses = server.drain();
    const double es = now_s() - e0;

    std::uint64_t hits = 0;
    std::vector<double> lat;
    lat.reserve(responses.size());
    for (const serve::Response& r : responses) {
      if (r.cache_hit) ++hits;
      lat.push_back(r.service_seconds);
      all_lat.push_back(r.service_seconds);
    }
    total_served += responses.size();
    const double n = static_cast<double>(responses.size());
    per_epoch.row({std::to_string(e + 1), std::to_string(responses.size()),
                   bench::num(es > 0 ? n / es : 0.0, 0), bench::us(percentile(lat, 0.50)),
                   bench::us(percentile(lat, 0.95)), bench::us(percentile(lat, 0.99)),
                   bench::num(n > 0 ? static_cast<double>(hits) / n : 0.0, 3)});
  }
  const double total_s = now_s() - t0;
  server.stop();
  const serve::ServerStats st = server.stats();

  per_epoch.print("Serve epochs: cache warm-up across drains");

  bench::Table total(
      {"workload", "requests", "requests_per_s", "p50_us", "p95_us", "p99_us",
       "hit_ratio", "program_hit_ratio", "batches", "coalesced_max"});
  total.row({"total", std::to_string(total_served),
             bench::num(total_s > 0 ? static_cast<double>(total_served) / total_s : 0.0, 0),
             bench::us(percentile(all_lat, 0.50)), bench::us(percentile(all_lat, 0.95)),
             bench::us(percentile(all_lat, 0.99)), bench::num(st.hit_ratio(), 3),
             bench::num(st.program_hit_ratio(), 3), std::to_string(st.batches),
             std::to_string(st.coalesced_max)});
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
