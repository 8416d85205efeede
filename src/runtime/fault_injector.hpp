// Transient-fault injection for the thread-backed runtime.
//
// The threaded executor has no clock, so time-windowed faults are
// modelled as per-directed-link refusal countdowns, indexed by a
// topo::Topology's link_index (the n-cube is topo::HypercubeTopology,
// like every other interconnect): a link refuses its next
// `refusals_per_window` send attempts per finite fault window, then
// recovers.  Senders retry with exponential backoff (microseconds) up to
// RetryPolicy::max_retries attempts / `timeout` wall-clock seconds; a
// packet that exhausts its budget is still delivered — silently dropping
// it would deadlock downstream receive loops — but the give-up is
// recorded and execute_program_threads throws fault::FaultError once all
// node threads have finished.
//
// Permanent faults have no recovery to retry into, so the injector
// rejects them up front: route around them at planning time
// (Transpose2DOptions::faults, LocationPlanner::set_faults) and keep the
// injector for the transient remainder.
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "fault/fault.hpp"
#include "topology/topology.hpp"

namespace nct::runtime {

class FaultInjector {
 public:
  /// Builds countdown tables for topology `t` from the transient faults
  /// in `spec`: link faults name (node, port) pairs of `t`, the reverse
  /// direction of a link follows the topology's reverse port, and node
  /// faults cover every wired port.  Throws std::invalid_argument if
  /// `spec` contains a permanent fault (see the header comment) or a
  /// port that is out of range or unwired on `t`.
  FaultInjector(const topo::Topology& t, const fault::FaultSpec& spec,
                int refusals_per_window = 3)
      : n_(t.ports()), nodes_(t.nodes()), remaining_(t.link_slots()) {
    if (refusals_per_window < 0)
      throw std::invalid_argument("refusals_per_window must be non-negative");
    const auto add = [&](cube::word from, int dim, bool both) {
      if (dim < 0 || dim >= t.ports() || from >= t.nodes() ||
          t.neighbor(from, dim) == topo::kNoNode)
        throw std::invalid_argument("fault link outside the topology");
      remaining_[t.link_index(from, dim)].fetch_add(refusals_per_window,
                                                    std::memory_order_relaxed);
      if (both) {
        const cube::word to = t.neighbor(from, dim);
        remaining_[t.link_index(to, t.reverse_port(from, dim))].fetch_add(
            refusals_per_window, std::memory_order_relaxed);
      }
    };
    for (const auto& f : spec.links) {
      if (f.when.permanent())
        throw std::invalid_argument(
            "FaultInjector models transient faults only; plan around permanent ones");
      add(f.link.from, f.link.dim, f.both_directions);
    }
    for (const auto& f : spec.nodes) {
      if (f.when.permanent())
        throw std::invalid_argument(
            "FaultInjector models transient faults only; plan around permanent ones");
      for (int d = 0; d < t.ports(); ++d) {
        if (t.neighbor(f.node, d) != topo::kNoNode) add(f.node, d, true);
      }
    }
  }

  /// The same on the n-cube (topo::HypercubeTopology(n)).
  FaultInjector(int n, const fault::FaultSpec& spec, int refusals_per_window = 3)
      : FaultInjector(topo::HypercubeTopology(n), spec, refusals_per_window) {}

  /// Ports per node (== cube dimensions on a cube).
  int dimensions() const noexcept { return n_; }
  cube::word nodes() const noexcept { return nodes_; }

  /// One send attempt over directed link `li`: true = the link carries
  /// the packet, false = refused (one unit of the countdown consumed).
  bool try_acquire(std::size_t li) noexcept {
    int r = remaining_[li].load(std::memory_order_relaxed);
    while (r > 0) {
      if (remaining_[li].compare_exchange_weak(r, r - 1, std::memory_order_relaxed)) {
        refusals_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    return true;
  }

  /// Total refused attempts so far (across all links and threads).
  std::size_t refusals() const noexcept { return refusals_.load(std::memory_order_relaxed); }

  /// Packets that exhausted their retry budget (delivered regardless).
  std::size_t give_ups() const noexcept { return give_ups_.load(std::memory_order_relaxed); }

  void note_give_up() noexcept { give_ups_.fetch_add(1, std::memory_order_relaxed); }

 private:
  int n_;
  cube::word nodes_;
  std::vector<std::atomic<int>> remaining_;
  std::atomic<std::size_t> refusals_{0};
  std::atomic<std::size_t> give_ups_{0};
};

}  // namespace nct::runtime
