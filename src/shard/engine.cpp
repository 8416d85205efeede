#include "shard/engine.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "sim/exec_step.hpp"
#include "sim/fault_gate.hpp"

namespace nct::shard {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Event = ShardScratch::Event;

bool ev_less(double r1, std::uint32_t p1, double r2, std::uint32_t p2) noexcept {
  return r1 != r2 ? r1 < r2 : p1 < p2;
}

/// Control state the coordinator publishes between barriers.  Plain
/// (non-atomic) fields: every write happens strictly before a barrier
/// that every reader passes through.
struct Shared {
  double clock = 0.0;
  double w_end = 0.0;
  bool phase_done = false;
  bool has_cross = false;
  double t_ready = 0.0;       ///< serial-spine cut (smallest cross event).
  std::uint32_t t_pid = 0;
};

template <bool kLean>
void run_sharded(const sim::MachineParams& params, const sim::EngineOptions& options,
                 const sim::CompiledProgram& cp, const topo::Partition& part,
                 ShardScratch& ss, sim::RunResult& out, ShardStats* stats_out) {
  const int ports = cp.ports();
  const std::uint32_t nshards = part.shards;

  // Shared big arrays: compact link state, dense node state — exactly
  // the single-thread scratch, reset the same way.
  sim::RunScratch& base = ss.base;
  sim::detail::FaultGate gate;
  const sim::detail::ExecEnv env =
      sim::detail::begin_run<false>(params, options, cp, base, out, gate);
  out.memory.clear();

  const auto& phases = cp.phases();
  const auto& sends = cp.send_ops();
  const std::uint32_t* const link_pool = env.link_pool;
  const std::uint32_t* const link_global = env.link_global;
  const std::uint32_t* const node_owner = part.owner.data();
  const std::size_t nactive = cp.active_links().size();
  double* const node_done = base.node_done.data();
  std::uint32_t* const pkt_hop = env.pkt_hop;

  // Ownership tables: a directed link belongs to its source node's
  // shard; a link with any fault window or degrade factor routes its
  // events to the serial spine (the fault gate is single-writer state).
  if (ss.link_owner.size() < nactive) ss.link_owner.resize(nactive);
  for (std::size_t ci = 0; ci < nactive; ++ci)
    ss.link_owner[ci] =
        node_owner[static_cast<std::size_t>(link_global[ci]) /
                   static_cast<std::size_t>(std::max(ports, 1))];
  const std::uint32_t* const link_owner = ss.link_owner.data();
  const bool have_faults = !kLean && gate.model != nullptr;
  if (have_faults) {
    if (ss.link_faulted.size() < nactive) ss.link_faulted.resize(nactive);
    for (std::size_t ci = 0; ci < nactive; ++ci)
      ss.link_faulted[ci] = gate.model->touches(link_global[ci]) ? 1 : 0;
  }
  const std::uint8_t* const link_faulted = ss.link_faulted.data();

  if (ss.shards.size() < nshards) ss.shards.resize(nshards);
  for (std::uint32_t s = 0; s < nshards; ++s) {
    ShardScratch::PerShard& sh = ss.shards[s];
    sh.queue.clear();  // residue only after an aborted run
    sh.window.clear();
    sh.cross.clear();
    sh.deliveries.clear();
    if (sh.outbox.size() < nshards) sh.outbox.resize(nshards);
    for (auto& box : sh.outbox) box.clear();
    sh.prefix_end = 0;
    sh.events = 0;
  }

  const bool one_port = env.one_port;

  Shared shared;
  std::atomic<bool> abort{false};
  std::exception_ptr error;
  std::size_t windows = 0, serial_events = 0;
  const auto no_copy = [](const sim::CompiledCopy&) {};
  std::barrier<> sync(static_cast<std::ptrdiff_t>(nshards));

  const auto thread_body = [&](const std::uint32_t me) {
    ShardScratch::PerShard& sh = ss.shards[me];
    std::uint64_t global_seq = 0;

    for (std::int32_t phase_index = 0;
         phase_index < static_cast<std::int32_t>(phases.size()); ++phase_index) {
      const sim::CompiledPhase& ph = phases[static_cast<std::size_t>(phase_index)];
      const sim::CompiledSend* const phase_sends = sends.data() + ph.send_begin;
      const std::uint32_t nsends = ph.send_end - ph.send_begin;
      const std::uint64_t seq_base = global_seq;
      global_seq += nsends;

      if (me == 0)
        sim::detail::open_phase<false>(env, cp, phase_index, shared.clock, out, no_copy);
      sync.arrive_and_wait();  // prologue charges visible; node_done stable

      // Injection: each shard enqueues the packets whose first link it
      // owns (the first hop starts at the source node).
      sh.queue.begin_phase(shared.clock, cp.event_dt_hint());
      for (std::uint32_t pid = 0; pid < nsends; ++pid) {
        if (node_owner[static_cast<std::size_t>(phase_sends[pid].src)] != me) continue;
        const double nd = node_done[static_cast<std::size_t>(phase_sends[pid].src)];
        sh.queue.push(pid, nd > shared.clock ? nd : shared.clock);
        pkt_hop[pid] = 0;
      }
      sync.arrive_and_wait();  // all queues primed

      // Event hooks.  `deliver` defers the node-done fold to the phase
      // barrier (fp max is exact in any order); `forward` re-injects a
      // store-and-forward packet with its next hop's owner.
      const auto deliver_deferred = [&](word dst, double end) {
        sh.deliveries.push_back({dst, end});
      };
      const auto forward_local = [&](std::uint32_t pid, double end) {
        const sim::CompiledSend& s = phase_sends[pid];
        const std::uint32_t to = link_owner[link_pool[s.link_off + pkt_hop[pid]]];
        if (to == me) {
          sh.queue.push(pid, end);
        } else {
          sh.outbox[to].push_back({end, pid});
        }
      };
      // Serial-spine hooks (coordinator only, between barriers): push
      // straight into the owning shard's queue, deliver into shard 0's
      // log.
      const auto forward_direct = [&](std::uint32_t pid, double end) {
        const sim::CompiledSend& s = phase_sends[pid];
        ss.shards[link_owner[link_pool[s.link_off + pkt_hop[pid]]]].queue.push(pid, end);
      };
      const auto deliver_direct = [&](word dst, double end) {
        ss.shards[0].deliveries.push_back({dst, end});
      };
      const auto run_event = [&](const Event& ev, auto&& fwd, auto&& dlv) {
        sim::detail::step_store_forward<false, kLean>(env, phase_index, ev.pid,
                                                      phase_sends[ev.pid], ev.ready,
                                                      seq_base + ev.pid, fwd, dlv);
      };

      // Cross classification: can this event touch state another shard
      // may also touch this window?  One-port deliveries into a foreign
      // shard couple through the destination's receive port; any
      // faulted link couples through the (single-writer) fault gate.
      const auto is_cross = [&](const Event& ev) {
        const sim::CompiledSend& s = phase_sends[ev.pid];
        const std::uint32_t hop = pkt_hop[ev.pid];
        const std::uint32_t ci = link_pool[s.link_off + hop];
        if (have_faults && link_faulted[ci]) return true;
        if (one_port && hop + 1 == s.route_len &&
            node_owner[static_cast<std::size_t>(s.dst)] != me)
          return true;
        return false;
      };

      if (nsends > 0) {
        for (;;) {
          sh.min_ready = sh.queue.empty() ? kInf : sh.queue.top().ready;
          sync.arrive_and_wait();  // W1: fronts published
          if (me == 0) {
            double w0 = kInf;
            for (std::uint32_t s = 0; s < nshards; ++s)
              w0 = std::min(w0, ss.shards[s].min_ready);
            shared.phase_done = w0 == kInf;
            shared.w_end = w0 + ph.lookahead;
            if (!shared.phase_done) ++windows;
          }
          sync.arrive_and_wait();  // W2: window bounds published
          if (shared.phase_done) break;

          sh.window.clear();
          sh.cross.clear();
          while (!sh.queue.empty() && sh.queue.top().ready < shared.w_end) {
            const Event ev = sh.queue.pop();
            if (is_cross(ev)) {
              sh.cross.push_back(ev);
            } else {
              sh.window.push_back(ev);
            }
          }
          sh.has_cross = !sh.cross.empty();
          if (sh.has_cross) sh.cross_min = sh.cross.front();
          sync.arrive_and_wait();  // W3: classifications published
          if (me == 0) {
            shared.has_cross = false;
            for (std::uint32_t s = 0; s < nshards; ++s) {
              const ShardScratch::PerShard& o = ss.shards[s];
              if (!o.has_cross) continue;
              if (!shared.has_cross ||
                  ev_less(o.cross_min.ready, o.cross_min.pid, shared.t_ready, shared.t_pid)) {
                shared.t_ready = o.cross_min.ready;
                shared.t_pid = o.cross_min.pid;
                shared.has_cross = true;
              }
            }
          }
          sync.arrive_and_wait();  // W4: serial cut published

          // Parallel prefix: strictly before the cut, an event touches
          // only this shard's links/ports, in exact (ready, pid) order.
          std::size_t i = 0;
          for (; i < sh.window.size(); ++i) {
            const Event& ev = sh.window[i];
            if (shared.has_cross && !ev_less(ev.ready, ev.pid, shared.t_ready, shared.t_pid))
              break;
            run_event(ev, forward_local, deliver_deferred);
          }
          sh.prefix_end = i;
          sh.events += i;
          sync.arrive_and_wait();  // W5: prefix done

          if (me == 0) {
            // Serial spine: everything from the cut on, globally merged
            // back into (ready, pid) order.
            ss.suffix.clear();
            for (std::uint32_t s = 0; s < nshards; ++s) {
              const ShardScratch::PerShard& o = ss.shards[s];
              ss.suffix.insert(ss.suffix.end(), o.window.begin() + o.prefix_end,
                               o.window.end());
              ss.suffix.insert(ss.suffix.end(), o.cross.begin(), o.cross.end());
            }
            std::sort(ss.suffix.begin(), ss.suffix.end(),
                      [](const Event& a, const Event& b) {
                        return ev_less(a.ready, a.pid, b.ready, b.pid);
                      });
            try {
              for (const Event& ev : ss.suffix) run_event(ev, forward_direct, deliver_direct);
            } catch (...) {
              error = std::current_exception();
              abort.store(true);
            }
            serial_events += ss.suffix.size();
          }
          sync.arrive_and_wait();  // W6: spine done
          if (abort.load()) return;

          // Mailbox handoff: adopt packets forwarded into this shard.
          // Every such event is at or past w_end, i.e. in a later
          // window.
          for (std::uint32_t from = 0; from < nshards; ++from) {
            if (from == me) continue;
            auto& box = ss.shards[from].outbox[me];
            for (const Event& ev : box) sh.queue.push(ev.pid, ev.ready);
            box.clear();
          }
        }
      }

      if (me == 0) {
        // Fold the deferred deliveries: exact, order-free (fp max).
        sim::PhaseStats& stats = out.phases[static_cast<std::size_t>(phase_index)];
        for (std::uint32_t s = 0; s < nshards; ++s) {
          for (const ShardScratch::Delivery& d : ss.shards[s].deliveries) {
            double& done = node_done[static_cast<std::size_t>(d.dst)];
            if (d.end > done) done = d.end;
            if (d.end > stats.end) stats.end = d.end;
          }
          ss.shards[s].deliveries.clear();
        }
        shared.clock =
            sim::detail::close_phase<false>(env, cp, phase_index, shared.clock, out, no_copy);
      }
      sync.arrive_and_wait();  // epilogue visible (clock, node_done)
    }
  };

  if (nshards == 1) {
    thread_body(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(nshards - 1);
    for (std::uint32_t s = 1; s < nshards; ++s)
      workers.emplace_back(thread_body, s);
    thread_body(0);
    for (std::thread& t : workers) t.join();
  }

  if (error) {
    // Leave the scratch clean for the next run (the per-run prepare
    // also clears, but an aborted run should not look half-finished).
    for (std::uint32_t s = 0; s < nshards; ++s) ss.shards[s].queue.clear();
    std::rethrow_exception(error);
  }

  sim::detail::end_run(env, cp, shared.clock, out);

  if (stats_out) {
    stats_out->shards = nshards;
    stats_out->windows = windows;
    stats_out->serial_events = serial_events;
    stats_out->parallel_events = 0;
    stats_out->shard_events.assign(nshards, 0);
    for (std::uint32_t s = 0; s < nshards; ++s) {
      stats_out->shard_events[s] = ss.shards[s].events;
      stats_out->parallel_events += ss.shards[s].events;
    }
    stats_out->shard_nodes = part.counts();
  }
}

}  // namespace

std::size_t ShardScratch::heap_bytes() const noexcept {
  std::size_t bytes = base.heap_bytes() + shards.capacity() * sizeof(PerShard) +
                      link_owner.capacity() * sizeof(std::uint32_t) +
                      link_faulted.capacity() * sizeof(std::uint8_t) +
                      suffix.capacity() * sizeof(Event);
  for (const PerShard& sh : shards) {
    bytes += sh.queue.heap_bytes() +
             (sh.window.capacity() + sh.cross.capacity()) * sizeof(Event) +
             sh.deliveries.capacity() * sizeof(Delivery) +
             sh.outbox.capacity() * sizeof(std::vector<Event>);
    for (const auto& box : sh.outbox) bytes += box.capacity() * sizeof(Event);
  }
  return bytes;
}

double ShardStats::imbalance() const noexcept {
  if (shard_events.empty() || parallel_events == 0) return 0.0;
  std::size_t mx = 0;
  for (const std::size_t e : shard_events) mx = std::max(mx, e);
  const double mean =
      static_cast<double>(parallel_events) / static_cast<double>(shard_events.size());
  return mean > 0.0 ? static_cast<double>(mx) / mean : 0.0;
}

ShardEngine::ShardEngine(sim::MachineParams params, sim::EngineOptions options)
    : params_(params), options_(options) {}

sim::RunResult ShardEngine::run_timing(const sim::CompiledProgram& compiled,
                                       const topo::Partition& partition) const {
  sim::RunResult out;
  ShardScratch scratch;
  run_timing(compiled, partition, scratch, out);
  return out;
}

void ShardEngine::run_timing(const sim::CompiledProgram& compiled,
                             const topo::Partition& partition, ShardScratch& scratch,
                             sim::RunResult& out, ShardStats* stats) const {
  if (!sim::detail::same_machine(compiled.machine(), params_))
    throw sim::ProgramError("compiled program / shard engine machine mismatch");
  if (partition.shards < 1 ||
      partition.owner.size() != static_cast<std::size_t>(compiled.nodes()))
    throw sim::ProgramError("partition does not cover the compiled machine");
  for (const std::uint32_t o : partition.owner)
    if (o >= partition.shards) throw sim::ProgramError("partition owner out of range");

  // A traced run observes one globally ordered event stream, a
  // cut-through send reserves its whole route in one event (no window
  // can run it shard-locally), and a store-and-forward phase without
  // lookahead admits no window: all three run as the single-thread
  // engine's run, every event on the serial spine.
  const bool cut_through = params_.switching == sim::Switching::cut_through;
  bool serial = options_.trace != nullptr || cut_through;
  for (const sim::CompiledPhase& ph : compiled.phases())
    serial = serial || (ph.send_end > ph.send_begin && ph.lookahead <= 0.0);
  if (serial) {
    sim::Engine(params_, options_).run_timing(compiled, scratch.base, out);
    if (stats) {
      stats->shards = partition.shards;
      stats->windows = 0;
      stats->parallel_events = 0;
      // One event per send (cut-through) or per hop (a fault retry waits
      // inline and does not re-inject).
      stats->serial_events = cut_through ? out.total_sends : out.total_hops;
      stats->shard_events.assign(partition.shards, 0);
      stats->shard_nodes = partition.counts();
    }
  } else if (options_.faults && !options_.faults->empty()) {
    run_sharded<false>(params_, options_, compiled, partition, scratch, out, stats);
  } else {
    run_sharded<true>(params_, options_, compiled, partition, scratch, out, stats);
  }
}

}  // namespace nct::shard
