// Internal: the one fault arbiter shared by both execution modes and
// the sharded engine.
//
// Every executor must stay bit-identical under fault injection (the
// golden tests in tests/fault/ and tests/shard/ assert exact stream
// equality), so the arithmetic that turns an outage window into a
// delayed hop lives here, in one inline routine, instead of being
// re-derived per executor.
//
// A hop that would start while its link is down waits for the window to
// end (a `link_down` interval event), pays RetryPolicy::retry_penalty,
// and re-injects (a `retry` instant event).  A permanent outage, an
// exhausted retry budget or a blocked time beyond RetryPolicy::timeout
// emits an `aborted` event and raises fault::FaultError: data programs
// are planned around permanent faults (see core/transpose2d,
// comm/planner), so an abort is a planning gap, not a silent wrong
// answer.
#pragma once

#include <cstdint>
#include <string>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "topology/topology.hpp"

namespace nct::sim::detail {

struct FaultGate {
  /// Null for a healthy run: every acquire() is then the identity and no
  /// fault arithmetic (not even a multiply by 1.0) touches the times.
  const fault::FaultModel* model = nullptr;
  fault::RetryPolicy policy{};
  obs::TraceSink* sink = nullptr;
  int ports = 0;  ///< directed-link stride (== n on the cube).
  const topo::Topology* topo = nullptr;  ///< link decode for trace peers.

  std::size_t retries = 0;   ///< accumulated across the run.
  double down_wait = 0.0;    ///< summed simulated time blocked on outages.

  /// Earliest time >= t the directed link `li` accepts traffic, emitting
  /// link_down/retry events for every outage window crossed.
  double acquire(std::size_t li, double t, std::int32_t phase, std::uint64_t seq) {
    if (!model) return t;
    double cur = t;
    int tries = 0;
    for (;;) {
      const double up = model->up_at(li, cur);
      if (up == cur) return cur;
      const cube::word from = static_cast<cube::word>(li / static_cast<std::size_t>(ports));
      const int dim = static_cast<int>(li % static_cast<std::size_t>(ports));
      if (up == fault::kForever)
        give_up(phase, from, dim, seq, cur, "route crosses a permanently failed link");
      if (tries >= policy.max_retries)
        give_up(phase, from, dim, seq, cur, "retry budget exhausted on down link");
      if (up + policy.retry_penalty - t > policy.timeout)
        give_up(phase, from, dim, seq, cur, "timeout waiting for down link");
      if (sink) sink->link_down(phase, from, topo->neighbor(from, dim), dim, seq, cur, up);
      down_wait += up - cur;
      cur = up + policy.retry_penalty;
      ++tries;
      ++retries;
      if (sink) sink->retry(phase, from, topo->neighbor(from, dim), dim, seq, cur);
    }
  }

  /// Hop-time multiplier of link `li`; call only when model is set.
  double degrade(std::size_t li) const noexcept { return model->degrade(li); }

  [[noreturn]] void give_up(std::int32_t phase, cube::word node, int dim,
                            std::uint64_t seq, double t, const char* why) {
    if (sink) sink->aborted(phase, node, dim, seq, t);
    throw fault::FaultError(std::string(why) + ": node " + std::to_string(node) + " dim " +
                            std::to_string(dim) + " t=" + std::to_string(t));
  }
};

}  // namespace nct::sim::detail
