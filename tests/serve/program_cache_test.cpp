// The server's compiled-program cache: LRU eviction by bytes, programs
// held across their eviction, the oversize bypass, memoised planning
// rejections (but not resource exhaustion), and keys that keep apart
// every input of compile(build(problem, plan)) -- the plan choice and
// each machine field.
#include "serve/program_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/transpose2d.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "tune/layouts.hpp"

namespace nct::serve {
namespace {

Request problem_request(int lg = 10, int n = 4) {
  const tune::SpecPair pair = tune::fig_layout_2d(lg, n);
  Request r;
  r.machine = sim::MachineParams::ipsc(n);
  r.before = pair.first;
  r.after = pair.second;
  return r;
}

/// A compiled stepwise transpose of 2^lg elements on an n-cube iPSC.
ProgramCache::Program program(int lg, int n) {
  const Request r = problem_request(lg, n);
  return std::make_shared<const sim::CompiledProgram>(
      sim::compile(core::transpose_2d_stepwise(r.before, r.after, r.machine), r.machine));
}

/// A distinct cache key per `i`.
std::string key(int i) {
  const Request r = problem_request(10, 4);
  tune::Candidate c;
  c.packet_elements = static_cast<cube::word>(i);
  return ProgramCache::make_key(tune::make_key(r.machine, r.before, r.after, nullptr, {}), c);
}

std::size_t weight(const std::string& k, const ProgramCache::Program& p) {
  return k.size() + p->heap_bytes();
}

/// get() through a builder that counts its calls.
struct Getter {
  ProgramCache& cache;
  int builds = 0;
  ProgramCache::Program operator()(int i, const ProgramCache::Program& p) {
    return cache.get(key(i), [&] {
      ++builds;
      return p;
    });
  }
};

TEST(ProgramCache, EvictsLeastRecentlyUsedByBytes) {
  const ProgramCache::Program a = program(8, 4), b = program(10, 4), c = program(8, 4);
  const std::size_t wa = weight(key(0), a), wb = weight(key(1), b), wc = weight(key(2), c);
  // Room for any two of the three, not for all of them.
  ProgramCache cache(wa + wb + wc - 1);
  Getter get{cache};

  EXPECT_EQ(get(0, a), a);
  EXPECT_EQ(get(1, b), b);
  EXPECT_EQ(get.builds, 2);
  EXPECT_EQ(cache.stats().bytes, wa + wb);

  // Touch a: b is now the least recently used and goes first.
  EXPECT_EQ(get(0, nullptr), a);
  EXPECT_EQ(get.builds, 2);
  EXPECT_EQ(get(2, c), c);

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().bytes, wa + wc);
  EXPECT_EQ(get(0, nullptr), a);
  EXPECT_EQ(get(2, nullptr), c);
  EXPECT_EQ(get.builds, 3);
  EXPECT_EQ(get(1, b), b);  // evicted, so built again
  EXPECT_EQ(get.builds, 4);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ProgramCache, HeldProgramOutlivesItsEviction) {
  // The dispatcher holds a cycle's programs while later slots of the
  // same cycle insert; an eviction must not free a program still held.
  const Request r = problem_request(10, 4);
  const double expected =
      sim::Engine(r.machine).run_timing(*program(10, 4)).total_time;
  ProgramCache::Program held = program(10, 4);
  ProgramCache cache(weight(key(0), held));
  Getter get{cache};
  const sim::CompiledProgram* raw = held.get();
  held = get(0, held);
  ASSERT_EQ(held.get(), raw);

  get(1, program(10, 4));  // evicts key 0
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(sim::Engine(r.machine).run_timing(*held).total_time, expected);
}

TEST(ProgramCache, OversizeEntryIsServedButNotKept) {
  const ProgramCache::Program small = program(8, 4), big = program(12, 6);
  ProgramCache cache(weight(key(0), small) + 16);
  Getter get{cache};
  get(0, small);
  ASSERT_GT(weight(key(1), big), cache.capacity());

  EXPECT_EQ(get(1, big), big);  // served
  EXPECT_EQ(cache.size(), 1u);  // the small entry was not evicted for it
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().bytes, weight(key(0), small));
  get(1, big);
  get(0, nullptr);
  EXPECT_EQ(get.builds, 3);  // the big entry was built twice, the small once

  // Capacity 0 keeps nothing, not even a memoised failure.
  ProgramCache none(0);
  Getter get_none{none};
  get_none(0, nullptr);
  get_none(0, nullptr);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(get_none.builds, 2);
}

TEST(ProgramCache, PlanningRejectionIsMemoisedResourceExhaustionIsNot) {
  ProgramCache cache(std::size_t{1} << 20);
  int builds = 0;
  const auto reject = [&]() -> ProgramCache::Program {
    ++builds;
    throw std::invalid_argument("no route");
  };
  EXPECT_EQ(cache.get(key(0), reject), nullptr);
  EXPECT_EQ(cache.get(key(0), reject), nullptr);
  EXPECT_EQ(builds, 1);  // the repeat was served from the cache
  EXPECT_EQ(cache.size(), 1u);

  const auto out_of_memory = [&]() -> ProgramCache::Program {
    ++builds;
    throw std::bad_alloc();
  };
  const auto out_of_threads = [&]() -> ProgramCache::Program {
    ++builds;
    throw std::system_error(std::make_error_code(std::errc::resource_unavailable_try_again));
  };
  EXPECT_THROW(cache.get(key(1), out_of_memory), std::bad_alloc);
  EXPECT_THROW(cache.get(key(1), out_of_threads), std::system_error);
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(cache.size(), 1u);  // nothing recorded for key 1

  // Once memory is back, the same key builds and is kept.
  const ProgramCache::Program p = program(8, 4);
  Getter get{cache};
  EXPECT_EQ(get(1, p), p);
  EXPECT_EQ(get(1, nullptr), p);
  EXPECT_EQ(get.builds, 1);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(ProgramCache, SeveredBuildIsMemoisedAsInfeasible) {
  // Node 1 of a 4-cube cut off from every neighbour: the DPT plan
  // finds no route to its transpose partner (node 4) and throws.
  Request r = problem_request();
  for (int d = 0; d < 4; ++d) r.faults.fail_link(1, d);
  Server server;
  for (int epoch = 0; epoch < 2; ++epoch) {
    ASSERT_TRUE(server.submit(r).admitted);
    const std::vector<Response> out = server.drain();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, ServeStatus::infeasible);
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.program_misses, 1u);  // the repeat did not rebuild
  EXPECT_EQ(st.program_hits, 1u);
  EXPECT_EQ(st.batches, 0u);
  EXPECT_EQ(st.infeasible, 2u);
  EXPECT_EQ(st.tunes_failed, 1u);
}

TEST(ProgramCache, ModelBestAndTunedChoicesGetSeparateEntries) {
  // A CM problem whose tuned plan (DPT) differs from the cost model's
  // pick (MPT).
  Request r = problem_request(10, 4);
  r.machine = sim::MachineParams::cm(4);
  Server server;
  std::vector<Response> served;
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_TRUE(server.submit(r).admitted);
    const std::vector<Response> out = server.drain();
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].status, ServeStatus::ok);
    served.push_back(out[0]);
  }
  EXPECT_FALSE(served[0].cache_hit);
  EXPECT_TRUE(served[1].cache_hit);
  ASSERT_FALSE(served[0].plan == served[1].plan);
  EXPECT_TRUE(served[1].plan == served[2].plan);
  EXPECT_NE(served[0].simulated_seconds, served[1].simulated_seconds);
  EXPECT_EQ(served[1].simulated_seconds, served[2].simulated_seconds);

  // Cold choice and tuned choice: one miss each; the third epoch hits.
  const ServerStats st = server.stats();
  EXPECT_EQ(st.program_misses, 2u);
  EXPECT_EQ(st.program_hits, 1u);
  EXPECT_DOUBLE_EQ(st.program_hit_ratio(), 1.0 / 3.0);
}

TEST(ProgramCache, MachinesDifferingInOneCostFieldDoNotShare) {
  const Request a = problem_request();
  Request b = a;
  b.machine.tau *= 2.0;

  const tune::Candidate c;
  EXPECT_NE(ProgramCache::make_key(tune::make_key(a.machine, a.before, a.after, nullptr, {}), c),
            ProgramCache::make_key(tune::make_key(b.machine, b.before, b.after, nullptr, {}), c));

  Server server;
  ASSERT_TRUE(server.submit(a).admitted);
  ASSERT_TRUE(server.submit(b).admitted);
  const std::vector<Response> out = server.drain();
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[0].status, ServeStatus::ok);
  ASSERT_EQ(out[1].status, ServeStatus::ok);
  EXPECT_NE(out[0].simulated_seconds, out[1].simulated_seconds);
  EXPECT_EQ(server.stats().program_misses, 2u);
  EXPECT_EQ(server.stats().program_hits, 0u);
}

}  // namespace
}  // namespace nct::serve
