// Admission-queue behaviour: synchronous rejection reasons (full queue,
// tenant fair share, closed), priority-then-FIFO service order, close()
// letting consumers finish the backlog, and blocking-pop wakeups.
#include "serve/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "serve/workload.hpp"

namespace nct::serve {
namespace {

Request make_request(TenantId tenant, std::uint8_t priority = 0) {
  static Workload workload;  // any well-formed problem will do
  Request r = workload.next();
  r.tenant = tenant;
  r.priority = priority;
  return r;
}

TEST(AdmissionQueue, RejectsWhenFullWithReason) {
  AdmissionQueue q(QueueOptions{2, 1.0});
  EXPECT_TRUE(q.try_push(make_request(0)).admitted);
  EXPECT_TRUE(q.try_push(make_request(0)).admitted);
  const Admission a = q.try_push(make_request(0));
  EXPECT_FALSE(a.admitted);
  EXPECT_EQ(a.reason, RejectReason::queue_full);
  EXPECT_STREQ(reject_reason_name(a.reason), "queue_full");
  EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, EnforcesTenantFairShare) {
  AdmissionQueue q(QueueOptions{8, 0.25});
  EXPECT_EQ(q.tenant_cap(), 2u);
  EXPECT_TRUE(q.try_push(make_request(1)).admitted);
  EXPECT_TRUE(q.try_push(make_request(1)).admitted);
  const Admission over = q.try_push(make_request(1));
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.reason, RejectReason::tenant_over_share);
  // Another tenant still gets in: the flood saturated only its share.
  EXPECT_TRUE(q.try_push(make_request(2)).admitted);
  // Popping a tenant-1 item frees its slot.
  Admitted item;
  ASSERT_TRUE(q.pop(item));
  EXPECT_TRUE(q.try_push(make_request(1)).admitted);
}

TEST(AdmissionQueue, PushAllAdmitsAllOrNothing) {
  AdmissionQueue q(QueueOptions{4, 0.5});  // two slots per tenant
  EXPECT_TRUE(q.try_push(make_request(1)).admitted);

  // One request too many for the queue, or for tenant 1's share: the
  // whole batch is refused and nothing of it is queued.
  std::vector<Request> full = {make_request(2), make_request(2), make_request(3),
                               make_request(3)};
  EXPECT_EQ(q.try_push_all(full).reason, RejectReason::queue_full);
  std::vector<Request> over = {make_request(1), make_request(1)};
  EXPECT_EQ(q.try_push_all(over).reason, RejectReason::tenant_over_share);
  EXPECT_EQ(q.size(), 1u);

  // A batch that fits is admitted whole, with consecutive ids, and one
  // pop_ready() takes it together with the earlier request.
  std::vector<Request> fits = {make_request(1), make_request(2), make_request(2)};
  const Admission a = q.try_push_all(fits);
  ASSERT_TRUE(a.admitted);
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(q.size(), 4u);
  std::vector<Admitted> out;
  EXPECT_EQ(q.pop_ready(out), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, i);

  q.close();
  EXPECT_EQ(q.try_push_all(fits).reason, RejectReason::stopped);
}

TEST(AdmissionQueue, RejectsAfterClose) {
  AdmissionQueue q(QueueOptions{4, 1.0});
  EXPECT_TRUE(q.try_push(make_request(0)).admitted);
  q.close();
  const Admission a = q.try_push(make_request(0));
  EXPECT_FALSE(a.admitted);
  EXPECT_EQ(a.reason, RejectReason::stopped);
  // The backlog admitted before close() is still served.
  Admitted item;
  EXPECT_TRUE(q.pop(item));
  EXPECT_FALSE(q.pop(item));  // closed and drained
}

TEST(AdmissionQueue, ServesByPriorityThenFifo) {
  AdmissionQueue q(QueueOptions{8, 1.0});
  const RequestId low = q.try_push(make_request(0, 0)).id;
  const RequestId high1 = q.try_push(make_request(0, 2)).id;
  const RequestId mid = q.try_push(make_request(0, 1)).id;
  const RequestId high2 = q.try_push(make_request(0, 2)).id;
  std::vector<Admitted> items;
  EXPECT_EQ(q.pop_ready(items), 4u);
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].id, high1);  // highest class first, FIFO within
  EXPECT_EQ(items[1].id, high2);
  EXPECT_EQ(items[2].id, mid);
  EXPECT_EQ(items[3].id, low);
}

TEST(AdmissionQueue, PopReadyHonoursMaxItems) {
  AdmissionQueue q(QueueOptions{8, 1.0});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(make_request(0)).admitted);
  std::vector<Admitted> items;
  EXPECT_EQ(q.pop_ready(items, 2), 2u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop_ready(items, 0), 3u);
}

TEST(AdmissionQueue, TracksAdmissionIdsPeakAndTotals) {
  AdmissionQueue q(QueueOptions{4, 1.0});
  const Admission a0 = q.try_push(make_request(0));
  const Admission a1 = q.try_push(make_request(0));
  EXPECT_EQ(a0.id + 1, a1.id);  // ids are the admission sequence
  EXPECT_EQ(q.admitted_total(), 2u);
  EXPECT_EQ(q.peak_depth(), 2u);
  Admitted item;
  ASSERT_TRUE(q.pop(item));
  EXPECT_EQ(q.peak_depth(), 2u);  // peak is a high-water mark
  EXPECT_EQ(q.admitted_total(), 2u);
}

TEST(AdmissionQueue, BlockedConsumerWakesOnPush) {
  AdmissionQueue q(QueueOptions{4, 1.0});
  Admitted item;
  std::thread consumer([&] { ASSERT_TRUE(q.pop(item)); });
  const Admission a = q.try_push(make_request(7));
  consumer.join();
  EXPECT_TRUE(a.admitted);
  EXPECT_EQ(item.id, a.id);
  EXPECT_EQ(item.request.tenant, 7u);
}

TEST(AdmissionQueue, ConcurrentProducersNeverExceedCapacity) {
  AdmissionQueue q(QueueOptions{16, 1.0});
  std::vector<std::thread> producers;
  std::atomic<int> admitted{0};
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&q, &admitted, t] {
      Workload local;  // per-thread stream: make_request's is not synchronized
      for (int i = 0; i < 50; ++i) {
        Request r = local.next();
        r.tenant = static_cast<TenantId>(t);
        if (q.try_push(std::move(r)).admitted) admitted.fetch_add(1);
      }
    });
  }
  for (auto& th : producers) th.join();
  EXPECT_LE(q.size(), 16u);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(admitted.load()));
  EXPECT_EQ(q.admitted_total(), static_cast<RequestId>(admitted.load()));
}

}  // namespace
}  // namespace nct::serve
