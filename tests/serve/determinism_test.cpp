// The serving determinism contract: the response fields (status,
// plan, cache_hit, simulated_seconds) are a pure function of
// (admission order, initial cache state) — bit identical for any
// jobs/tune_jobs value and any dispatcher cycle partitioning.  Wall-clock latencies and batch occupancy are service
// measurements and deliberately NOT compared.
//
// Seeded from NCT_FUZZ_SEED when set; the seed is embedded in every
// assertion message so a failure reproduces with
// `NCT_FUZZ_SEED=<seed> ctest -R ServeDeterminism`.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "support/fuzz.hpp"
#include "tune/tuner.hpp"

namespace nct::serve {
namespace {

/// The sweeps' seed unless NCT_FUZZ_SEED overrides it.
constexpr unsigned kFuzzSeed = 20260806u;

struct RunConfig {
  int jobs = 1;
  int tune_jobs = 1;
  std::size_t max_cycle = 0;
  std::size_t queue_capacity = 4096;
};

/// Push `requests` workload requests through `epochs` drain() epochs and
/// return every response in admission-id order (and, when given, the
/// requests in that order through `sent` and the final stats through
/// `stats`).
std::vector<Response> run_stream(const RunConfig& cfg, std::uint64_t seed,
                                 std::uint64_t requests, int epochs,
                                 std::vector<Request>* sent = nullptr,
                                 ServerStats* stats = nullptr) {
  ServeOptions opt;
  opt.jobs = cfg.jobs;
  opt.tune_jobs = cfg.tune_jobs;
  opt.max_cycle = cfg.max_cycle;
  opt.queue_capacity = cfg.queue_capacity;
  Server server(opt);

  WorkloadOptions wopt;
  wopt.faults = true;
  wopt.seed = seed;
  Workload workload(wopt);

  std::vector<Response> all;
  all.reserve(requests);
  std::uint64_t remaining = requests;
  for (int e = 0; e < epochs; ++e) {
    const std::uint64_t quota = remaining / static_cast<std::uint64_t>(epochs - e);
    remaining -= quota;
    for (std::uint64_t k = 0; k < quota; ++k) {
      // Draw once, retry the SAME request: backpressure must change
      // latency, never which requests make up the admitted stream.
      const Request req = workload.next();
      if (sent != nullptr) sent->push_back(req);
      for (;;) {
        Request copy = req;
        const Admission adm = server.submit(std::move(copy));
        if (adm.admitted) break;
        EXPECT_EQ(adm.reason, RejectReason::queue_full);
        std::this_thread::yield();
      }
    }
    const std::vector<Response> epoch = server.drain();
    all.insert(all.end(), epoch.begin(), epoch.end());
  }
  if (stats != nullptr) *stats = server.stats();
  return all;
}

void expect_identical(const std::vector<Response>& a, const std::vector<Response>& b,
                      unsigned seed, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << "NCT_FUZZ_SEED=" << seed << " " << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string ctx = " NCT_FUZZ_SEED=" + std::to_string(seed) + " " + what +
                            " response " + std::to_string(i);
    ASSERT_EQ(a[i].id, b[i].id) << ctx;
    ASSERT_EQ(a[i].tenant, b[i].tenant) << ctx;
    ASSERT_EQ(a[i].status, b[i].status) << ctx;
    ASSERT_EQ(a[i].cache_hit, b[i].cache_hit) << ctx;
    ASSERT_EQ(a[i].plan.family, b[i].plan.family) << ctx;
    ASSERT_EQ(a[i].plan.packet_elements, b[i].plan.packet_elements) << ctx;
    ASSERT_EQ(a[i].plan.buffer_mode, b[i].plan.buffer_mode) << ctx;
    ASSERT_EQ(a[i].plan.b_copy_elements, b[i].plan.b_copy_elements) << ctx;
    // Bit-identical simulated time, not approximately equal.
    ASSERT_EQ(a[i].simulated_seconds, b[i].simulated_seconds) << ctx;
  }
}

TEST(ServeDeterminism, ResponsesIdenticalAcrossWorkerCounts) {
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed);
  const std::vector<Response> serial =
      run_stream(RunConfig{1, 1, 0, 4096}, seed, 400, 3);
  const std::vector<Response> parallel =
      run_stream(RunConfig{4, 2, 0, 4096}, seed, 400, 3);
  expect_identical(serial, parallel, seed, "jobs=1 vs jobs=4");
}

TEST(ServeDeterminism, ResponsesIdenticalAcrossCyclePartitioning) {
  // A tiny max_cycle forces many small serving cycles (different
  // coalescing and different resolve interleaving with tune completion);
  // a tiny queue forces backpressure.  Same responses regardless.
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed) + 1;
  const std::vector<Response> big =
      run_stream(RunConfig{2, 1, 0, 4096}, seed, 300, 2);
  const std::vector<Response> small =
      run_stream(RunConfig{2, 1, 7, 16}, seed, 300, 2);
  expect_identical(big, small, seed, "max_cycle=0 vs max_cycle=7");
}

TEST(ServeDeterminism, CachedProgramsMatchStandaloneEngine) {
  // The compiled-program cache only skips work: over a stream whose
  // problems repeat across cycles and epochs, so most slots run a cached
  // program, every served time equals compiling and running the served
  // plan outside the server, under the request's faults.
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed) + 2;
  std::vector<Request> sent;
  ServerStats stats;
  const std::vector<Response> out =
      run_stream(RunConfig{2, 1, 7, 4096}, seed, 300, 3, &sent, &stats);
  ASSERT_EQ(out.size(), sent.size()) << "NCT_FUZZ_SEED=" << seed;
  EXPECT_GT(stats.program_hits, stats.program_misses) << "NCT_FUZZ_SEED=" << seed;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Request& r = sent[i];
    if (out[i].status != ServeStatus::ok || r.kernel.kind != KernelKind::none) continue;
    const std::string ctx =
        "NCT_FUZZ_SEED=" + std::to_string(seed) + " response " + std::to_string(i);
    tune::TuneOptions topt;
    topt.faults = r.faults.empty() ? nullptr : &r.faults;
    const tune::Tuner tuner(r.machine, topt);
    const sim::CompiledProgram prog =
        sim::compile(tuner.build(r.before, r.after, out[i].plan), r.machine);
    fault::FaultModel faults;
    if (!r.faults.empty()) faults = fault::FaultModel(r.machine.n, r.faults);
    sim::EngineOptions eopt;
    eopt.faults = faults.empty() ? nullptr : &faults;
    const sim::RunResult res = sim::Engine(r.machine, eopt).run_timing(prog);
    ASSERT_EQ(out[i].simulated_seconds, res.total_time) << ctx;
    ++checked;
  }
  EXPECT_GT(checked, out.size() / 2) << "NCT_FUZZ_SEED=" << seed;
}

TEST(ServeDeterminism, FuzzRandomSeedsStayDeterministic) {
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed);
  for (int trial = 0; trial < 3; ++trial) {
    const std::uint64_t stream_seed = static_cast<std::uint64_t>(seed) * 31 + trial;
    const std::vector<Response> a =
        run_stream(RunConfig{1, 1, 5, 32}, stream_seed, 150, 2);
    const std::vector<Response> b =
        run_stream(RunConfig{3, 2, 11, 64}, stream_seed, 150, 2);
    expect_identical(a, b, seed, "fuzz trial " + std::to_string(trial));
  }
}

TEST(ServeDeterminism, SimulatedTimesMatchStandaloneEngine) {
  // A served plan's simulated time must be bit-identical to compiling
  // and running the same candidate outside the server.
  Server server;
  WorkloadOptions wopt;
  wopt.seed = 5;
  Workload workload(wopt);
  const Request r = workload.next();
  Request copy = r;
  ASSERT_TRUE(server.submit(std::move(copy)).admitted);
  const std::vector<Response> out = server.drain();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].status, ServeStatus::ok);

  tune::TuneOptions topt;
  const tune::Tuner tuner(r.machine, topt);
  const sim::CompiledProgram prog =
      sim::compile(tuner.build(r.before, r.after, out[0].plan), r.machine);
  const sim::RunResult res = sim::Engine(r.machine).run_timing(prog);
  EXPECT_EQ(out[0].simulated_seconds, res.total_time);
}

}  // namespace
}  // namespace nct::serve
