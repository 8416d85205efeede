#include "serve/queue.hpp"

#include <algorithm>
#include <chrono>

namespace nct::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* reject_reason_name(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::none: return "none";
    case RejectReason::queue_full: return "queue_full";
    case RejectReason::tenant_over_share: return "tenant_over_share";
    case RejectReason::stopped: return "stopped";
    case RejectReason::bad_request: return "bad_request";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(QueueOptions options)
    : capacity_(std::max<std::size_t>(1, options.capacity)) {
  const double share = std::clamp(options.tenant_share, 0.0, 1.0);
  tenant_cap_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(capacity_) * share));
}

Admission AdmissionQueue::try_push(Request&& request) {
  return try_push_all(std::span<Request>(&request, 1));
}

Admission AdmissionQueue::try_push_all(std::span<Request> requests) {
  const std::uint64_t stamp = now_ns();
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return {false, RejectReason::stopped, 0};
  if (requests.size() > capacity_ - size_) return {false, RejectReason::queue_full, 0};
  // A tenant's load is what it has queued plus its requests so far in
  // this batch; batches are a handful of requests, so a scan counts them.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const TenantId tenant = requests[i].tenant;
    std::size_t load = 1;
    for (std::size_t j = 0; j < i; ++j) load += requests[j].tenant == tenant ? 1 : 0;
    const auto it = tenant_load_.find(tenant);
    if (it != tenant_load_.end()) load += it->second;
    if (load > tenant_cap_) return {false, RejectReason::tenant_over_share, 0};
  }

  const RequestId first = next_id_;
  const bool was_empty = size_ == 0;
  for (Request& r : requests) {
    tenant_load_[r.tenant] += 1;
    const std::uint8_t prio = r.priority;
    classes_[prio].push_back(Admitted{std::move(r), next_id_++, stamp});
  }
  size_ += requests.size();
  peak_ = std::max(peak_, size_);
  lock.unlock();
  // Consumers blocked in pop()/pop_ready() only sleep on an empty
  // queue, so one wake on the empty->nonempty edge suffices; skipping
  // the syscall on every other push is what keeps saturated-queue
  // admission cheap.
  if (was_empty && !requests.empty()) ready_.notify_all();
  return {true, RejectReason::none, first};
}

Admitted AdmissionQueue::pop_locked() {
  const auto it = classes_.begin();  // highest priority class
  Admitted item = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) classes_.erase(it);
  size_ -= 1;
  const auto load = tenant_load_.find(item.request.tenant);
  if (load != tenant_load_.end() && --load->second == 0) tenant_load_.erase(load);
  return item;
}

bool AdmissionQueue::pop(Admitted& out) {
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [&] { return size_ > 0 || closed_; });
  if (size_ == 0) return false;
  out = pop_locked();
  return true;
}

std::size_t AdmissionQueue::pop_ready(std::vector<Admitted>& out, std::size_t max_items) {
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [&] { return size_ > 0 || closed_; });
  std::size_t n = 0;
  while (size_ > 0 && (max_items == 0 || n < max_items)) {
    out.push_back(pop_locked());
    ++n;
  }
  return n;
}

void AdmissionQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

std::size_t AdmissionQueue::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

std::size_t AdmissionQueue::peak_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

RequestId AdmissionQueue::admitted_total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

}  // namespace nct::serve
