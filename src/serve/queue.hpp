// Bounded multi-producer/multi-consumer admission queue with
// per-tenant fair-share limits and priority classes.
//
// Backpressure is synchronous: try_push() never blocks and never
// resizes — a push against a full queue (or against a tenant already
// holding its fair share of the capacity) returns a reject reason the
// caller can surface to the client immediately.  This is the
// okec/EdgeSim++ base-station shape: a dispatcher with finite task
// slots refuses work it cannot hold rather than queueing unboundedly.
//
// Fair share: one tenant may occupy at most
// max(1, floor(capacity * tenant_share)) slots.  With tenant_share < 1
// a flooding tenant saturates only its share and other tenants keep
// admitting — the starvation tests drive one tenant at full rate and
// assert a second tenant's requests still get through.
//
// Service order: strictly by priority class (higher first), FIFO
// within a class.  Pops are mutex-serialised, so any number of
// consumer threads can drain concurrently; each admitted item is
// delivered exactly once.  Admission ids are assigned under the queue
// lock, so for a single producer the id order *is* the submission
// order (the determinism tests rely on this).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "serve/request.hpp"

namespace nct::serve {

struct QueueOptions {
  std::size_t capacity = 4096;
  /// Max fraction of the capacity one tenant may occupy, clamped to
  /// (0, 1]; 1.0 disables fair-share limiting.
  double tenant_share = 1.0;
};

/// One queued admission: the request plus its id and admission stamp
/// (wall clock, for the latency measurements).
struct Admitted {
  Request request;
  RequestId id = 0;
  std::uint64_t admitted_ns = 0;  ///< steady-clock nanoseconds.
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(QueueOptions options);

  /// Admit `request` or reject it with a reason; never blocks.  On
  /// admission the request has been moved into the queue and the
  /// returned Admission carries its id.  A batch of one for
  /// try_push_all.
  Admission try_push(Request&& request);

  /// Admit every request of `requests` or none, under one lock, so a
  /// consumer sees all of them in the same pop_ready().  Ids are
  /// consecutive from the returned Admission's id.  A rejected batch
  /// carries the reason of the first check it fails; the requests are
  /// then left untouched.
  Admission try_push_all(std::span<Request> requests);

  /// Dequeue the highest-priority item, blocking until one is
  /// available or the queue is closed.  False only when closed *and*
  /// drained — close() lets consumers finish the backlog.
  bool pop(Admitted& out);

  /// Drain every currently-queued item (priority order) into `out`,
  /// blocking until at least one is available or the queue is closed
  /// and empty.  `max_items` 0 = no limit.  Returns the number drained.
  std::size_t pop_ready(std::vector<Admitted>& out, std::size_t max_items = 0);

  /// Stop admitting (pushes reject with RejectReason::stopped) and wake
  /// all blocked consumers; queued items remain poppable.
  void close();

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  /// Largest queue depth ever observed (after a push).
  std::size_t peak_depth() const;
  /// Per-tenant slot cap derived from the options.
  std::size_t tenant_cap() const noexcept { return tenant_cap_; }
  /// Lifetime admissions (== the next id to be assigned).  Incremented
  /// under the queue lock before the item becomes poppable, so the
  /// server's "all admitted requests answered" accounting never sees a
  /// response outrun its admission.
  RequestId admitted_total() const;

 private:
  // Highest priority first; FIFO per class.  A map keyed descending is
  // O(log #classes) per operation with #classes the number of
  // *distinct* priorities in flight (typically a handful).
  using Classes = std::map<std::uint8_t, std::deque<Admitted>, std::greater<>>;

  Admitted pop_locked();

  std::size_t capacity_;
  std::size_t tenant_cap_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  Classes classes_;
  std::unordered_map<TenantId, std::size_t> tenant_load_;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  RequestId next_id_ = 0;
  bool closed_ = false;
};

}  // namespace nct::serve
