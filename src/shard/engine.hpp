// Conservative-parallel sharded execution of one compiled program.
//
// `ShardEngine` partitions a `sim::CompiledProgram`'s nodes and links
// across host threads (one shard per thread) and runs the same
// event-driven timing simulation the single-thread engine runs —
// producing **bit-identical** simulated times, stats and (when enabled)
// traces.  That equality is not approximate and not statistical; the
// golden and fuzz tests in tests/shard/ compare every double exactly.
//
// How it stays exact (full write-up: DESIGN.md section 15):
//
//  * Ownership.  Every node belongs to one shard (topo::Partition); a
//    directed link (u -> v) belongs to shard(u).  A store-and-forward
//    hop event executes on the shard owning its link, so per-link state
//    (availability clock, busy total) has a single writer per window.
//    First-hop send-port state is co-located by construction; the only
//    couplings that can cross shards are one-port *deliveries* (the
//    receive port of a remote destination) and faulted/degraded links.
//  * Lookahead windows.  Within a phase, events are executed in barrier
//    windows [W, W + L), where L is the phase's compiled lookahead (the
//    minimum per-event time increment of any of its sends).  Every
//    re-injected hop lands at least L past its predecessor's ready time
//    (fault degradation only multiplies costs by factors >= 1), so no
//    event can be born into the window that schedules it: the window's
//    event set is complete when it opens, and no null messages are
//    needed.  Each shard keeps its events in the single-thread engine's
//    calendar queue (sim/scratch.hpp), peeking its front to bound the
//    window.
//  * Serial spine.  Each shard drains its window events in exact
//    (ready, pid) order and classifies them: an event that can touch
//    another shard's state is *cross*.  Let T be the globally smallest
//    (ready, pid) of any cross event.  Events before T touch only
//    owner-local state and run in parallel; everything from T on is
//    merged and executed serially, in exact (ready, pid) order, by the
//    coordinator.  Per mutable location, the update sequence is then a
//    subsequence of the single-thread engine's — identical operands,
//    identical order, identical doubles.  Deliveries (node-done clocks,
//    phase end) are folded at the phase barrier, exact because fp max
//    is associative and commutative.
//  * Serial runs.  A traced run (one globally ordered event stream), a
//    cut-through run (each send reserves its whole route in one event,
//    so nearly every event would be cross) and one with a phase of zero
//    lookahead (no window can open) are the single-thread engine's run
//    on the shared scratch; ShardStats then counts every event as
//    serial.  Windows therefore serve store-and-forward runs only.
//
// The engine is timing-only (the sharded path exists for machines far
// too large to hold per-node memory images; data-mode correctness is
// established at small scale by the golden tests).  Faults, retry
// policies and event traces are honoured exactly as in `sim::Engine`.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "sim/scratch.hpp"
#include "topology/partition.hpp"

namespace nct::shard {

using cube::word;

/// How a sharded run spent its events — the shard-balance observability
/// the ROADMAP asks for.  Deterministic: pure function of (program,
/// partition, options), never of thread scheduling.
struct ShardStats {
  std::uint32_t shards = 1;
  std::size_t windows = 0;          ///< barrier windows executed.
  std::size_t parallel_events = 0;  ///< events run in shard-parallel prefixes.
  std::size_t serial_events = 0;    ///< events run on the serial spine.
  std::vector<std::size_t> shard_events;  ///< parallel events per shard.
  std::vector<std::size_t> shard_nodes;   ///< nodes owned per shard.

  /// Fraction of events that ran in parallel (0 when the run was empty).
  double parallel_fraction() const noexcept {
    const std::size_t total = parallel_events + serial_events;
    return total == 0 ? 0.0 : static_cast<double>(parallel_events) / static_cast<double>(total);
  }
  /// Load imbalance of the parallel work: max/mean of shard_events
  /// (1.0 = perfectly balanced; 0 when no parallel events ran).
  double imbalance() const noexcept;
};

/// Grow-only arena for sharded runs: the shared RunScratch plus the
/// per-shard queues, window buffers, mailboxes and delivery logs.  One
/// scratch serves any sequence of runs; reuse is allocation-free in the
/// steady state.  Must not be shared between concurrent runs.
struct ShardScratch {
  using Event = sim::detail::CalendarQueue::Event;

  struct Delivery {
    word dst = 0;
    double end = 0.0;
  };

  /// Cache-line aligned so neighbouring shards' hot fields do not
  /// false-share during the parallel prefix.
  struct alignas(64) PerShard {
    sim::detail::CalendarQueue queue;
    std::vector<Event> window;  ///< this window's local events, (ready, pid) order.
    std::vector<Event> cross;   ///< this window's cross events, (ready, pid) order.
    std::size_t prefix_end = 0; ///< entries of `window` consumed by the prefix.
    std::vector<Delivery> deliveries;        ///< deferred arrivals (fold at barrier).
    std::vector<std::vector<Event>> outbox;  ///< [to-shard] forwarded packets.
    double min_ready = 0.0;     ///< published queue front (or +inf).
    Event cross_min{};          ///< published smallest cross event.
    bool has_cross = false;
    std::size_t events = 0;     ///< parallel events processed (stats).
  };

  /// Heap bytes the scratch holds: the shared RunScratch plus every
  /// shard's queue, buffers and mailboxes and the link tables.
  std::size_t heap_bytes() const noexcept;

  sim::RunScratch base;
  std::vector<PerShard> shards;
  std::vector<std::uint32_t> link_owner;   ///< compact link -> owning shard.
  std::vector<std::uint8_t> link_faulted;  ///< compact link -> fault/degrade present.
  std::vector<Event> suffix;               ///< merged serial-spine events.
};

/// Sharded counterpart of `sim::Engine` for timing-only runs.  Same
/// machine/options contract; `run_timing` additionally takes the node
/// partition that defines shard ownership (see topo::make_partition).
class ShardEngine {
 public:
  explicit ShardEngine(sim::MachineParams params, sim::EngineOptions options = {});

  const sim::MachineParams& params() const noexcept { return params_; }

  /// Run `compiled` across `partition.shards` threads.  Simulated times,
  /// phase stats, fault counters and event streams are bit-identical to
  /// `sim::Engine::run_timing` for any partition.  Throws ProgramError
  /// on machine/partition mismatches and fault::FaultError exactly when
  /// the single-thread path would.
  sim::RunResult run_timing(const sim::CompiledProgram& compiled,
                            const topo::Partition& partition) const;

  /// Zero-steady-state-allocation variant writing into `out`; `stats`
  /// (optional) receives the shard balance report.
  void run_timing(const sim::CompiledProgram& compiled, const topo::Partition& partition,
                  ShardScratch& scratch, sim::RunResult& out,
                  ShardStats* stats = nullptr) const;

 private:
  sim::MachineParams params_;
  sim::EngineOptions options_;
};

}  // namespace nct::shard
