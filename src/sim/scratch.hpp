// Reusable per-run execution state for the compiled engine paths.
//
// Every `Engine::run_timing` / `Engine::run(CompiledProgram, ...)` call
// needs the same scratch structures: per-link and per-node availability
// clocks, the pending-event queue, and (in data mode) the phase payload
// arena.  Allocating them per run dominated the cost of small
// simulations — the inner loop of every parameter sweep, tuner search
// and fault sample.  `RunScratch` owns all of it with grow-only
// storage, so a batch of runs performs zero steady-state heap
// allocations: the first run on the largest machine sizes the arrays,
// every later run reuses them.
//
// Correctness of reuse does not depend on clearing: the engine resets
// exactly the entries a program can read (its active links and nodes,
// recorded at compile time) at run start, and the event queue is always
// drained by a completed run (a run aborted by fault::FaultError leaves
// residue, which the next run start discards).
//
// The pending-event queue is a calendar (bucket) queue instead of a
// binary heap.  Events land in a bucket keyed by floor(ready / width);
// a bucket is sorted descending on first pop of its day, so pops are
// O(1) pops from the back and bulk injections cost one sort.  Pop order
// is *exactly* ascending (ready, pid) — pid is the packet's injection
// sequence inside its phase, so ties at equal ready times break on the
// global injection order, and the pop sequence (hence every simulated
// time) is bit-identical to the binary heap it replaces.  The golden
// tests in tests/sim/ enforce that equality.  The same queue serves every
// shard of shard::ShardEngine, which also reads its front with top() to
// bound a lookahead window.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/program.hpp"

namespace nct::sim::detail {

/// Calendar event queue with exact ascending (ready, pid) pop order.
///
/// Buckets hold their events in ascending (ready, pid) order with a
/// consumed-head index.  A push compares against the bucket's last
/// event: if it is not before it — the overwhelmingly common case in
/// barrier-synchronised phases, where injections arrive in pid order at
/// equal ready times and store-and-forward re-injections inherit the
/// non-decreasing pop order — the bucket simply stays sorted and a pop
/// is one index increment.  Only an out-of-order push marks the bucket
/// dirty, and the unsorted tail is merged on the next pop from it.
///
/// Storage is recycled, not kept per bucket: a bucket that drains hands
/// its (cleared) event vector to a spare pool, and the next empty
/// bucket to receive a push adopts the most recently pooled vector.
/// Each phase fills buckets at a different place on the ring, so with
/// per-bucket storage every bucket would keep its own peak capacity
/// for good; with the pool the queue keeps only as many vectors as
/// buckets were ever non-empty at once, each at most twice the events
/// it held, and a steady state of repeated runs swaps vectors instead
/// of allocating.
///
/// Monotonicity contract (satisfied by both executors): a push after
/// the first pop never carries a `ready` below the last popped one.
/// top() may advance the current day past a later push's day; that push
/// rewinds the day to its own, so pops stay exactly ordered.  Reuse
/// contract: begin_phase() may only be called on an empty queue
/// (clear() after an aborted run).
class CalendarQueue {
 public:
  struct Event {
    double ready = 0.0;
    std::uint32_t pid = 0;
  };

  CalendarQueue() : buckets_(kBuckets) {}

  /// Re-key the (empty) queue for events starting at `start` with a
  /// typical spacing of `width_hint` seconds (<= 0: any constant works;
  /// only the bucket spread, not correctness, depends on the hint).
  void begin_phase(double start, double width_hint) {
    inv_width_ = width_hint > 0.0 ? 1.0 / width_hint : 1.0;
    set_day(day_of(start));
    misses_ = 0;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void push(std::uint32_t pid, double ready) {
    const std::uint64_t day = day_of(ready);
    // Only a top() that advanced past this day can leave it behind (the
    // sharded window drain peeks beyond its window end, then forwards
    // into it); the monotone plain engine never rewinds.
    if (day < cur_day_) set_day(day);
    const std::size_t idx = static_cast<std::size_t>(day) & kMask;
    Bucket& b = buckets_[idx];
    if (!b.events.empty() && before(ready, pid, b.events.back())) b.dirty = true;
    if (b.events.size() == b.events.capacity()) [[unlikely]] adopt(b);
    b.events.push_back(Event{ready, pid});
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++size_;
  }

  /// The event with the smallest (ready, pid), left in the queue.  May
  /// advance the current day past empty ones.  Precondition: !empty().
  const Event& top() {
    const Bucket& b = front_bucket();
    return b.events[b.head];
  }

  /// Remove and return the event with the smallest (ready, pid).
  /// Precondition: !empty().
  Event pop() {
    Bucket& b = front_bucket();
    const Event ev = b.events[b.head];
    if (++b.head == b.events.size()) {
      recycle(b);
      const std::size_t idx = static_cast<std::size_t>(cur_day_) & kMask;
      occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
    --size_;
    return ev;
  }

  /// Discard residual events (only needed after an aborted run).
  void clear() {
    if (size_ == 0) return;
    for (Bucket& b : buckets_) {
      if (!b.events.empty()) recycle(b);
      b.dirty = false;
    }
    occupied_.fill(0);
    size_ = 0;
  }

  /// Heap bytes the queue holds: the bucket array and the capacity of
  /// every event vector, in buckets or pooled.
  std::size_t heap_bytes() const noexcept {
    std::size_t bytes = buckets_.capacity() * sizeof(Bucket) +
                        spare_.capacity() * sizeof(std::vector<Event>);
    for (const Bucket& b : buckets_) bytes += b.events.capacity() * sizeof(Event);
    for (const auto& v : spare_) bytes += v.capacity() * sizeof(Event);
    return bytes;
  }

 private:
  struct Bucket {
    std::vector<Event> events;
    std::size_t head = 0;  ///< index of the next unconsumed event.
    bool dirty = false;    ///< true: [head, end) is not fully sorted.
  };

  static constexpr std::size_t kBuckets = 512;  // power of two
  static constexpr std::size_t kMask = kBuckets - 1;
  static constexpr double kMaxDay = 9007199254740992.0;  // 2^53

  std::uint64_t day_of(double t) const noexcept {
    // Clamp far-future days so the cast stays defined for any width;
    // events collapsed onto the last day still pop in (ready, pid) order.
    const double d = t * inv_width_;
    return d < kMaxDay ? static_cast<std::uint64_t>(d)
                       : static_cast<std::uint64_t>(kMaxDay);
  }

  void set_day(std::uint64_t day) noexcept {
    cur_day_ = day;
    // Exact while day + 1 <= 2^53; at the clamp day every remaining
    // event "is today", which keeps the (ready, pid) order and avoids
    // a livelock on the boundary.
    next_day_ = cur_day_ >= static_cast<std::uint64_t>(kMaxDay)
                    ? std::numeric_limits<double>::infinity()
                    : static_cast<double>(cur_day_ + 1);
  }

  static bool before(double ready, std::uint32_t pid, const Event& b) noexcept {
    return ready != b.ready ? ready < b.ready : pid < b.pid;
  }

  static bool less(const Event& a, const Event& b) noexcept {
    return a.ready != b.ready ? a.ready < b.ready : a.pid < b.pid;
  }

  /// The bucket holding the smallest event at its head, advancing the
  /// current day to it.  Precondition: !empty().
  Bucket& front_bucket() {
    for (;;) {
      Bucket& b = buckets_[static_cast<std::size_t>(cur_day_) & kMask];
      if (b.head != b.events.size()) {
        if (b.dirty) sort_bucket(b);
        // Same-day test without a cast: all live events have
        // day_of >= cur_day_, so day_of(ready) == cur_day_ iff
        // ready * inv_width < cur_day_ + 1 (exact: cur_day_ + 1 <= 2^53).
        if (b.events[b.head].ready * inv_width_ < next_day_) {
          misses_ = 0;
          return b;
        }
      }
      advance_day();
    }
  }

  /// Give an empty bucket without storage the most recently pooled
  /// vector (a full bucket just grows).  Out of line: push stays small
  /// enough to inline into the executors' event loops.
  [[gnu::noinline]] void adopt(Bucket& b) {
    if (!b.events.empty() || spare_.empty()) return;
    b.events.swap(spare_.back());
    spare_.pop_back();
  }

  /// Empty a drained bucket and pool its storage for the next bucket
  /// that fills.
  [[gnu::noinline]] void recycle(Bucket& b) {
    b.events.clear();
    b.head = 0;
    spare_.push_back(std::move(b.events));
    b.events = std::vector<Event>();
  }

  /// Restore ascending order on [head, end).  Reached only after an
  /// out-of-order push into this bucket, so the cost is proportional to
  /// how irregular the schedule actually is.
  void sort_bucket(Bucket& b) {
    std::sort(b.events.begin() + static_cast<std::ptrdiff_t>(b.head), b.events.end(), less);
    b.dirty = false;
  }

  /// Advance to the next day whose bucket holds any events, via the
  /// occupancy bitmap (one bit-scan instead of walking empty days).  A
  /// nonempty bucket may still hold only far-future events (a later
  /// calendar revolution); the misses guard detects a fruitless full
  /// revolution of such stops and jumps to the exact minimum day.
  void advance_day() {
    if (++misses_ > kBuckets) {
      jump_to_min_day();
      return;
    }
    const std::size_t from = static_cast<std::size_t>(cur_day_ + 1) & kMask;
    for (std::size_t w = 0; w <= kBuckets / 64; ++w) {
      const std::size_t word_i = ((from >> 6) + w) & (kBuckets / 64 - 1);
      std::uint64_t bits = occupied_[word_i];
      if (w == 0) bits &= ~std::uint64_t{0} << (from & 63);
      if (bits) {
        const std::size_t idx = (word_i << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        // Ring distance from `from` to idx, then offset from cur_day_.
        const std::size_t dist = (idx - from) & kMask;
        set_day(cur_day_ + 1 + dist);
        return;
      }
    }
    // Bitmap empty: queue is empty; leave the day unchanged (pop is only
    // called when !empty(), so this is unreachable in a valid run).
    jump_to_min_day();
  }

  void jump_to_min_day() {
    std::uint64_t min_day = ~std::uint64_t{0};
    for (const Bucket& b : buckets_) {
      for (std::size_t i = b.head; i < b.events.size(); ++i)
        min_day = std::min(min_day, day_of(b.events[i].ready));
    }
    if (min_day != ~std::uint64_t{0}) set_day(min_day);
    misses_ = 0;
  }

  std::vector<Bucket> buckets_;
  std::vector<std::vector<Event>> spare_;  ///< drained buckets' storage, LIFO.
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  double inv_width_ = 1.0;
  double next_day_ = 1.0;  ///< double(cur_day_ + 1), the same-day bound.
  std::uint64_t cur_day_ = 0;
  std::size_t size_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace nct::sim::detail

namespace nct::sim {

/// Grow-only arena of everything a compiled-program run touches besides
/// the program itself and the result.  One scratch serves any sequence
/// of runs (any machines, any programs) on one thread; reuse across
/// runs is what makes batch execution allocation-free.
class RunScratch {
 public:
  /// Grow the arrays for a machine with `nodes` nodes, a program using
  /// `links` *active* directed links (compact indexing — see
  /// CompiledProgram::link_pool) and phases of up to `max_sends` sends.
  /// Never shrinks; new storage is zero-initialised (the per-run
  /// active-set reset makes stale values unobservable either way).
  void ensure(std::size_t nodes, std::size_t links, std::size_t max_sends) {
    if (link_free.size() < links) {
      link_free.resize(links, 0.0);
      link_busy_total.resize(links, 0.0);
    }
    if (send_free.size() < nodes) {
      send_free.resize(nodes, 0.0);
      recv_free.resize(nodes, 0.0);
      node_done.resize(nodes, 0.0);
    }
    if (pkt_hop.size() < max_sends) pkt_hop.resize(max_sends, 0);
  }

  // Availability clocks.  Link arrays are indexed by *compact*
  // active-link index (O(links the program uses), not O(nodes x
  // ports)); node arrays stay dense by node id.
  std::vector<double> link_free;
  std::vector<double> link_busy_total;
  std::vector<double> send_free;
  std::vector<double> recv_free;
  std::vector<double> node_done;

  /// Heap bytes the scratch holds: every array's capacity plus the
  /// event queue's (CalendarQueue::heap_bytes()).
  std::size_t heap_bytes() const noexcept {
    return (link_free.capacity() + link_busy_total.capacity() + send_free.capacity() +
            recv_free.capacity() + node_done.capacity()) *
               sizeof(double) +
           pkt_hop.capacity() * sizeof(std::uint32_t) + queue.heap_bytes() +
           (payload.capacity() + copy_vals.capacity()) * sizeof(word);
  }

  /// SoA in-flight packet state: next hop index per packet id (the
  /// packet's ready time lives in its queue event).
  std::vector<std::uint32_t> pkt_hop;

  detail::CalendarQueue queue;

  // Data-mode arenas (unused by timing-only runs).
  std::vector<word> payload;
  std::vector<word> copy_vals;
};

}  // namespace nct::sim
