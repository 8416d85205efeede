// Transpose-as-a-service: a multi-tenant request-serving core over the
// plan/tune/engine stack.
//
// Pipeline (admission -> resolve -> batch -> execute):
//
//   submit()  --bounded MPMC queue-->  dispatcher thread
//     |  synchronous admit/reject        |  per cycle:
//     |  (queue_full, tenant share,      |   1. drain everything queued
//     |   stopped, bad_request)          |   2. resolve each request
//                                        |      (PlanCache hit, else
//                                        |       cost-model-best + a
//                                        |       background-tune job)
//                                        |   3. coalesce identical
//                                        |      problems into slots,
//                                        |      group slots by
//                                        |      (machine, faults)
//                                        |   4. look each slot's
//                                        |      (problem, plan) up in
//                                        |      the compiled-program
//                                        |      cache (build and
//                                        |      compile on a miss), then
//                                        |      one run_timing_batch
//                                        |      per group on `jobs`
//                                        |      workers
//                                        |   5. write responses
//
// Cold misses never block: the request is served with the cost model's
// best candidate immediately, and a background tuner (its own thread)
// runs the full simulation-backed search.  Tuned results are published
// into the plan cache at epoch boundaries — drain() joins outstanding
// tunes, publishes them in completion order, and resets the resolution
// memo — so repeated epochs of the same traffic see a strictly better
// cache.
//
// Compiled programs outlive the epoch: compile(build(key, choice)) is a
// pure function of the problem key and the plan, so the ProgramCache
// (program_cache.hpp) keeps them, bounded by bytes, and a repeated
// problem skips planning and compiling in every later cycle.
//
// Determinism: the response fields (status,
// plan, cache_hit, simulated_seconds) are a pure function of the
// admission order and the initial cache state, bit-identical for any
// `jobs`/`tune_jobs` value: resolution is single-threaded in admission
// order, the epoch memo pins every key's decision against tune races,
// batch results land at their slot index (Engine::run_timing_batch's
// guarantee), and drain() returns responses sorted by admission id.
// Wall-clock latencies and batch occupancy are service measurements,
// not part of the contract.
//
// Shutdown: stop() (also the destructor) closes admission, serves the
// remaining backlog, and discards not-yet-started background tunes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/program_cache.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/resolver.hpp"
#include "sim/batch.hpp"
#include "tune/cache.hpp"
#include "tune/tuner.hpp"

namespace nct::serve {

struct ServeOptions {
  /// Admission queue slots; pushes beyond reject with queue_full.
  std::size_t queue_capacity = 4096;
  /// Max fraction of the queue one tenant may occupy (see queue.hpp).
  double tenant_share = 1.0;
  /// Worker threads per batched engine execution (0 = hardware).
  int jobs = 1;
  /// Measurement threads of each background tune (0 = hardware).
  int tune_jobs = 1;
  /// Max requests drained per serving cycle (0 = everything queued).
  std::size_t max_cycle = 0;
  /// Shared plan cache (not owned; e.g. loaded from an `nct_tune`
  /// store).  Null: the server keeps a private in-memory cache.
  tune::PlanCache* cache = nullptr;
  /// Search-space signature used for cache keys, model-best resolution
  /// and background tunes (part of every problem's identity).
  tune::SpaceOptions space;
};

/// Monotonic serving counters (one consistent snapshot).
struct ServerStats {
  std::uint64_t submitted = 0;  ///< submit() calls, admitted or not.
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_share = 0;
  std::uint64_t rejected_stopped = 0;
  std::uint64_t rejected_bad = 0;
  std::uint64_t completed = 0;   ///< responses written (ok + infeasible).
  std::uint64_t infeasible = 0;
  std::uint64_t kernels_served = 0;  ///< kernel-pipeline requests executed ok.
  std::uint64_t cache_hits = 0;   ///< requests resolved from the cache.
  std::uint64_t cache_misses = 0; ///< requests resolved from the model.
  std::uint64_t cycles = 0;
  std::uint64_t batches = 0;      ///< coalesced engine executions.
  std::uint64_t coalesced_max = 0;  ///< largest batch occupancy seen.
  std::uint64_t tunes_enqueued = 0;
  std::uint64_t tunes_completed = 0;
  std::uint64_t tunes_published = 0;
  std::uint64_t tunes_failed = 0;
  /// Compiled-program cache lookups, one per slot: a hit reuses the
  /// program (or the memoised failure of its build), a miss plans and
  /// compiles.
  std::uint64_t program_hits = 0;
  std::uint64_t program_misses = 0;
  std::uint64_t program_evictions = 0;
  std::uint64_t program_bytes = 0;  ///< compiled-program cache weight now.
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  std::size_t queue_capacity = 0;

  double hit_ratio() const noexcept {
    const std::uint64_t n = cache_hits + cache_misses;
    return n == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(n);
  }
  double program_hit_ratio() const noexcept {
    const std::uint64_t n = program_hits + program_misses;
    return n == 0 ? 0.0 : static_cast<double>(program_hits) / static_cast<double>(n);
  }
};

class Server {
 public:
  explicit Server(ServeOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit or reject a request; thread-safe, never blocks.  Structural
  /// validation (shape/machine mismatch) rejects with bad_request
  /// before the request consumes a queue slot.
  Admission submit(Request request);

  /// Admit all of `requests` or none, with the same checks as submit().
  /// An admitted batch lands in the queue at once, so the dispatcher
  /// serves it in one cycle (unless ServeOptions::max_cycle splits it).
  /// A rejected batch returns the rejecting reason for every request.
  std::vector<Admission> submit_all(std::vector<Request> requests);

  /// Wait until every admitted request has been served, then finish the
  /// epoch: join outstanding background tunes, publish their results into the plan cache, reset the resolution
  /// memo, and return all responses since the previous drain() sorted
  /// by admission id.  Call from a quiesced producer for deterministic
  /// epoch boundaries; concurrent submits are legal and simply land in
  /// the next epoch if not yet served.
  std::vector<Response> drain();

  /// Close admission, serve the backlog, stop the worker threads.
  /// Pending (not yet started) background tunes are discarded.
  /// Idempotent; the destructor calls it.
  void stop();

  ServerStats stats() const;

  /// serve/* metrics snapshot: counters (admitted, rejects by reason,
  /// queue depth/peak, batches, cache hit ratio, tune counters,
  /// compiled-program cache counters) plus
  /// the serve/batch_occupancy histogram — the same report shape
  /// `format_report` and the bench --json dumps consume.
  obs::MetricsReport metrics() const;

  /// The plan cache in use (shared or server-private).
  tune::PlanCache& plan_cache() noexcept { return *cache_; }

  const ServeOptions& options() const noexcept { return options_; }

 private:
  struct PendingPublish {
    tune::TuneKey key;
    tune::CacheEntry entry;
  };

  void dispatcher_main();
  void tuner_main();
  void serve_cycle(std::vector<Admitted>& items);
  void enqueue_tunes(std::vector<TuneJob> jobs);
  /// Counts `requests` submissions that ended with `reason`.
  void count_admissions(std::uint64_t requests, RejectReason reason);

  ServeOptions options_;
  std::unique_ptr<tune::PlanCache> owned_cache_;  ///< when options_.cache null.
  tune::PlanCache* cache_ = nullptr;

  AdmissionQueue queue_;

  // Dispatcher state.  cycle_mu_ serialises serving cycles against
  // drain()'s publish/new-epoch step.
  std::mutex cycle_mu_;
  Resolver resolver_;
  ProgramCache programs_;
  sim::BatchScratch batch_scratch_;
  std::thread dispatcher_;

  // Responses.
  mutable std::mutex resp_mu_;
  std::condition_variable resp_cv_;
  std::vector<Response> done_;
  std::uint64_t responses_total_ = 0;  ///< lifetime responses written.

  // Background tuning.
  std::mutex tune_mu_;
  std::condition_variable tune_cv_;   ///< work available / closed.
  std::condition_variable tune_idle_; ///< queue empty and not tuning.
  std::deque<TuneJob> tune_queue_;
  std::vector<PendingPublish> pending_publish_;
  /// Keys already queued, in flight, or completed-unpublished: stops a
  /// cold key missing in several epochs from tuning more than once.
  std::unordered_set<std::uint64_t> tune_keys_;
  bool tune_busy_ = false;
  bool tune_closed_ = false;
  std::thread tuner_;

  // Counters (stats_mu_ also guards the occupancy histogram).
  mutable std::mutex stats_mu_;
  ServerStats stats_{};
  obs::Histogram occupancy_;

  std::atomic<bool> stopped_{false};
};

}  // namespace nct::serve
