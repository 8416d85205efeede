// Serving-core behaviour: cold misses served from the cost model and
// upgraded by background tunes at epoch boundaries, bad-request
// validation, 0-d cube requests, fault-carrying requests in the same
// cycle as healthy ones, tenant fair share under flooding, shutdown
// semantics, and the serve/* metrics surface.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "serve/workload.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "topology/topology.hpp"
#include "tune/layouts.hpp"
#include "tune/tuner.hpp"

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

TEST(Server, ColdMissServesCostModelPlanWithoutBlockingOnTuning) {
  Server server;
  const Admission adm = server.submit(problem_request());
  ASSERT_TRUE(adm.admitted);
  const std::vector<Response> out = server.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, adm.id);
  EXPECT_EQ(out[0].status, ServeStatus::ok);
  EXPECT_FALSE(out[0].cache_hit);  // epoch 1: cost-model serve
  EXPECT_GT(out[0].simulated_seconds, 0.0);
  // The background tune completed at the drain barrier and was published.
  const ServerStats st = server.stats();
  EXPECT_EQ(st.tunes_enqueued, 1u);
  EXPECT_EQ(st.tunes_completed, 1u);
  EXPECT_EQ(st.tunes_published, 1u);
  EXPECT_EQ(server.plan_cache().size(), 1u);
}

TEST(Server, RepeatedEpochHitsThePublishedPlan) {
  Server server;
  ASSERT_TRUE(server.submit(problem_request()).admitted);
  const std::vector<Response> cold = server.drain();
  ASSERT_EQ(cold.size(), 1u);
  ASSERT_FALSE(cold[0].cache_hit);

  ASSERT_TRUE(server.submit(problem_request()).admitted);
  const std::vector<Response> warm = server.drain();
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_TRUE(warm[0].cache_hit);
  EXPECT_EQ(warm[0].status, ServeStatus::ok);
  EXPECT_GT(warm[0].simulated_seconds, 0.0);
  EXPECT_GT(server.stats().hit_ratio(), 0.0);
  // No second tune for the same problem key.
  EXPECT_EQ(server.stats().tunes_enqueued, 1u);
}

TEST(Server, RequestsCoalesceIntoOneBatch) {
  Server server;
  std::vector<RequestId> ids;
  for (int i = 0; i < 8; ++i) {
    const Admission adm = server.submit(problem_request());
    ASSERT_TRUE(adm.admitted);
    ids.push_back(adm.id);
  }
  const std::vector<Response> out = server.drain();
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, ids[i]);  // sorted by admission id
    EXPECT_EQ(out[i].simulated_seconds, out[0].simulated_seconds);
  }
  const ServerStats st = server.stats();
  EXPECT_GE(st.coalesced_max, 2u);              // identical problems shared a slot
  EXPECT_LT(st.batches, 8u);                    // fewer engine runs than requests
  EXPECT_EQ(st.tunes_enqueued, 1u);             // one distinct problem, one tune
}

TEST(Server, BadRequestsRejectSynchronouslyWithoutAQueueSlot) {
  Server server;
  // Shape mismatch across the transpose.
  Request shape_mismatch = problem_request();
  shape_mismatch.after = tune::fig_layout_2d(12, 4).second;
  const Admission a1 = server.submit(shape_mismatch);
  EXPECT_FALSE(a1.admitted);
  EXPECT_EQ(a1.reason, RejectReason::bad_request);
  // More processor bits than the machine has dimensions.
  Request too_small = problem_request(10, 4);
  too_small.machine = sim::MachineParams::ipsc(2);
  const Admission a2 = server.submit(too_small);
  EXPECT_FALSE(a2.admitted);
  EXPECT_EQ(a2.reason, RejectReason::bad_request);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.rejected_bad, 2u);
  EXPECT_EQ(st.admitted, 0u);
  EXPECT_TRUE(server.drain().empty());
}

TEST(Server, ZeroDimensionalCubeRequestIsServed) {
  // n = 0: one processor, the transpose is a purely local reorder.  The
  // serving layer must route it through the same pipeline without
  // special-casing.
  Request r;
  r.machine = sim::MachineParams::ipsc(0);
  const cube::MatrixShape s{2, 3};
  r.before = cube::PartitionSpec::col_consecutive(s, 0);
  r.after = cube::PartitionSpec::col_consecutive(s.transposed(), 0);
  Server server;
  const Admission adm = server.submit(r);
  ASSERT_TRUE(adm.admitted);
  const std::vector<Response> out = server.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status, ServeStatus::ok);
  EXPECT_GE(out[0].simulated_seconds, 0.0);
}

TEST(Server, FaultCarryingRequestsServeAlongsideHealthyOnes) {
  Server server;
  Request faulted = problem_request();
  faulted.faults.fail_link(0, 3);
  // Both requests enter the queue under one lock, so the dispatcher
  // cannot wake between them: they share one serving cycle.
  const std::vector<Admission> adm = server.submit_all({problem_request(), faulted});
  ASSERT_EQ(adm.size(), 2u);
  const Admission healthy = adm[0];
  const Admission degraded = adm[1];
  ASSERT_TRUE(healthy.admitted);
  ASSERT_TRUE(degraded.admitted);
  const std::vector<Response> out = server.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, healthy.id);
  EXPECT_EQ(out[0].status, ServeStatus::ok);
  EXPECT_GT(out[0].simulated_seconds, 0.0);
  // The faulted request is a *different* problem key (never aliases the
  // healthy plan) and serves ok (fault-aware planning routes around one
  // severed wire) in the same cycle.
  EXPECT_EQ(out[1].id, degraded.id);
  EXPECT_EQ(out[1].status, ServeStatus::ok);
  EXPECT_EQ(server.stats().cycles, 1u);
  EXPECT_GE(server.stats().batches, 2u);  // distinct problems, distinct groups
}

TEST(Server, NonCubeTransposeRequestIsServedLikeAStandaloneRun) {
  // Off the cube machine.n is 0, so admission sizes the spec pair
  // against the topology's node count.  A mesh(2x2) transpose with a
  // transient link fault is admitted, and in both the cost-model epoch
  // and the tuned one its time equals tuning, compiling and running the
  // served plan outside the server.
  const tune::SpecPair p = tune::fig_layout_2d(8, 2);
  Request r;
  r.machine = sim::MachineParams::on_topology(topo::mesh_id({2, 2}),
                                              sim::MachineParams::ipsc(2));
  r.before = p.first;
  r.after = p.second;
  r.faults.fail_link(0, 0, fault::Window{0.0, 1e-3});

  tune::TuneOptions topt;
  topt.faults = &r.faults;
  const tune::Tuner tuner(r.machine, topt);
  const fault::FaultModel faults(topo::make_topology(r.machine.topology, r.machine.n),
                                 r.faults);
  sim::EngineOptions eopt;
  eopt.faults = &faults;
  Server server;
  for (int epoch = 0; epoch < 2; ++epoch) {
    SCOPED_TRACE(epoch);
    const Admission adm = server.submit(r);
    ASSERT_TRUE(adm.admitted);
    const std::vector<Response> out = server.drain();
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].status, ServeStatus::ok);
    EXPECT_EQ(out[0].cache_hit, epoch == 1);
    const sim::CompiledProgram prog =
        sim::compile(tuner.build(r.before, r.after, out[0].plan), r.machine);
    EXPECT_EQ(out[0].simulated_seconds,
              sim::Engine(r.machine, eopt).run_timing(prog).total_time);
  }

  // Sixteen processors do not fit the mesh's four nodes.
  Request too_big = r;
  too_big.before = tune::fig_layout_2d(8, 4).first;
  too_big.after = tune::fig_layout_2d(8, 4).second;
  EXPECT_EQ(server.submit(too_big).reason, RejectReason::bad_request);
}

TEST(Server, MalformedFaultSpecServesInfeasibleNotCrash) {
  Request r = problem_request(10, 4);
  r.faults.fail_link(1u << 10, 0);  // node far outside the 4-cube
  Server server;
  ASSERT_TRUE(server.submit(r).admitted);
  const std::vector<Response> out = server.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status, ServeStatus::infeasible);
  EXPECT_EQ(server.stats().infeasible, 1u);
}

TEST(Server, FloodingTenantCannotStarveAnother) {
  ServeOptions opt;
  opt.queue_capacity = 8;
  opt.tenant_share = 0.25;  // two slots per tenant
  Server server(opt);

  std::uint64_t flooder_admitted = 0, victim_admitted = 0;
  for (int i = 0; i < 200; ++i) {
    Request flood = problem_request();
    flood.tenant = 1;
    if (server.submit(flood).admitted) ++flooder_admitted;
    if (i % 10 == 0) {
      Request victim = problem_request(11, 4);
      victim.tenant = 2;
      for (;;) {  // the victim retries only fair-share/full rejects
        const Admission adm = server.submit(victim);
        if (adm.admitted) {
          ++victim_admitted;
          break;
        }
        ASSERT_TRUE(adm.reason == RejectReason::tenant_over_share ||
                    adm.reason == RejectReason::queue_full)
            << reject_reason_name(adm.reason);
        std::this_thread::yield();
      }
    }
  }
  const std::vector<Response> out = server.drain();
  std::uint64_t victim_served = 0;
  for (const Response& r : out) {
    if (r.tenant == 2) ++victim_served;
  }
  EXPECT_EQ(victim_admitted, 20u);  // every victim request got through
  EXPECT_EQ(victim_served, 20u);    // ...and was served
  EXPECT_GT(flooder_admitted, 0u);
}

TEST(Server, StopRejectsNewWorkAndServesTheBacklog) {
  Server server;
  const Admission adm = server.submit(problem_request());
  ASSERT_TRUE(adm.admitted);
  server.stop();
  const Admission after = server.submit(problem_request());
  EXPECT_FALSE(after.admitted);
  EXPECT_EQ(after.reason, RejectReason::stopped);
  // The admitted request was served before shutdown completed.
  EXPECT_EQ(server.stats().completed, 1u);
  EXPECT_EQ(server.stats().rejected_stopped, 1u);
  server.stop();  // idempotent
}

TEST(Server, SharedCachePersistsAcrossServerInstances) {
  tune::PlanCache cache;
  ServeOptions opt;
  opt.cache = &cache;
  {
    Server server(opt);
    ASSERT_TRUE(server.submit(problem_request()).admitted);
    ASSERT_FALSE(server.drain()[0].cache_hit);
  }
  EXPECT_EQ(cache.size(), 1u);
  {
    Server server(opt);  // fresh server, warm shared cache
    ASSERT_TRUE(server.submit(problem_request()).admitted);
    EXPECT_TRUE(server.drain()[0].cache_hit);
  }
  const tune::CacheStats st = cache.stats();
  EXPECT_GE(st.hits, 1u);
  EXPECT_GE(st.misses, 1u);
}

TEST(Server, MetricsReportCarriesServeCountersAndOccupancy) {
  Server server;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(server.submit(problem_request()).admitted);
  server.drain();
  const obs::MetricsReport report = server.metrics();
  EXPECT_EQ(report.value("serve/admitted"), 4.0);
  EXPECT_EQ(report.value("serve/completed"), 4.0);
  EXPECT_GE(report.value("serve/batches"), 1.0);
  EXPECT_EQ(report.value("serve/cache_hits") + report.value("serve/cache_misses"), 4.0);
  ASSERT_FALSE(report.histograms.empty());
  EXPECT_EQ(report.histograms[0].name, "serve/batch_occupancy");
  EXPECT_GE(report.histograms[0].total, 1u);
  // The formatted block and JSON both carry the serve/* namespace.
  EXPECT_NE(report.format().find("serve/admitted"), std::string::npos);
  EXPECT_NE(report.to_json().find("serve/batch_occupancy"), std::string::npos);
}

TEST(Server, WorkloadStreamServesEveryAdmittedRequest) {
  ServeOptions opt;
  opt.max_cycle = 16;  // force many small cycles
  Server server(opt);
  WorkloadOptions wopt;
  wopt.faults = true;
  wopt.seed = 99;
  Workload workload(wopt);
  std::uint64_t admitted = 0;
  for (int i = 0; i < 300; ++i) {
    for (;;) {
      const Admission adm = server.submit(workload.next());
      if (adm.admitted) {
        ++admitted;
        break;
      }
      ASSERT_EQ(adm.reason, RejectReason::queue_full);
      std::this_thread::yield();
    }
  }
  const std::vector<Response> out = server.drain();
  EXPECT_EQ(out.size(), admitted);
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1].id, out[i].id);
  EXPECT_GE(server.stats().cycles, out.size() / 16);
}

}  // namespace
}  // namespace nct::serve
