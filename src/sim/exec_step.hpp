// Internal: the run prologue/epilogue, the phase open/close (stats row,
// copy and staging charges) and the per-event timing arithmetic shared
// by the single-thread compiled engine (sim/compile.cpp) and the
// sharded conservative engine (shard/engine.cpp).
//
// The sharded engine's contract is *bit-identical* simulated times to
// the single-thread timing path.  The only way to keep that promise
// under maintenance is for both paths to execute the same instructions:
// the store-and-forward hop step lives here, once, templated exactly
// like the former inline body (`kTrace` compiles the event-sink calls
// out, `kLean` additionally strips the fault-gate branches).  The
// cut-through route step lives beside it but serves only sim::Engine:
// the sharded engine runs every cut-through program as the
// single-thread engine's run.  The golden tests in tests/sim/ and
// tests/shard/ enforce the equality from both sides.
//
// Callers differ only in what happens *around* the shared code, which
// is injected through hooks:
//  * OnCopy(copy)         — runs before each copy's charge (data mode:
//    move the slots, so an empty-slot read throws first; sharded path:
//    nothing);
//  * OnForward(pid, end)  — a store-and-forward packet finished a
//    non-final hop and must be re-injected at time `end` (serial path:
//    push into the calendar queue; sharded path: push into this shard's
//    calendar queue or a cross-shard mailbox);
//  * OnDeliver(dst, end)  — a packet arrived at its destination (serial
//    path: fold into node_done/phase-end immediately; sharded path:
//    buffer and fold at the phase barrier — exact, because fp max is
//    associative and commutative).
//
// Link state is indexed by *compact* active-link index (see
// CompiledProgram::link_pool); the global topo::link_index, needed only
// by fault/trace instrumentation, is recovered through `link_global`.
#pragma once

#include <algorithm>
#include <cstdint>

#include "obs/trace.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "sim/fault_gate.hpp"
#include "sim/model.hpp"
#include "sim/scratch.hpp"
#include "topology/topology.hpp"

namespace nct::sim::detail {

/// Everything one timed event reads or writes.  Program fields are set
/// once per run; the scratch pointers alias RunScratch arrays (compact
/// link indexing) and may be shared by concurrent shards only under the
/// ownership discipline documented in shard/engine.hpp.
struct ExecEnv {
  // Program (immutable during a run).
  const CompiledSend* sends = nullptr;        ///< full send array.
  const SendCost* send_costs = nullptr;       ///< indexed by CompiledSend::cost.
  const std::uint32_t* link_pool = nullptr;   ///< compact link ids per hop.
  const std::uint32_t* link_global = nullptr; ///< compact -> topo::link_index.
  const topo::Topology* topology = nullptr;
  const MachineParams* params = nullptr;
  int ports = 0;
  bool one_port = false;

  // Mutable run state (RunScratch-backed).
  double* link_free = nullptr;        ///< compact-indexed.
  double* link_busy_total = nullptr;  ///< compact-indexed.
  double* send_free = nullptr;        ///< node-indexed.
  double* recv_free = nullptr;        ///< node-indexed.
  double* node_done = nullptr;        ///< node-indexed.
  std::uint32_t* pkt_hop = nullptr;   ///< per-pid next hop (store-and-forward).

  // Instrumentation (consulted per kTrace / kLean flags).
  obs::TraceSink* sink = nullptr;
  FaultGate* gate = nullptr;
};

/// Timing-relevant machine parameters must match between compile time
/// and run time or the precomputed costs are stale.
inline bool same_machine(const MachineParams& a, const MachineParams& b) noexcept {
  return a.n == b.n && a.tau == b.tau && a.tc == b.tc && a.tcopy == b.tcopy &&
         a.max_packet_bytes == b.max_packet_bytes && a.element_bytes == b.element_bytes &&
         a.port == b.port && a.switching == b.switching && a.topology == b.topology;
}

/// The run prologue of both executors: opens the trace (kTrace), fills
/// `gate` — an empty fault model is dropped, so a healthy run executes
/// exactly the fault-free arithmetic — zeroes the active link and node
/// state of `scratch` (O(active links + nodes), never O(machine)),
/// resets every counter of `out` except `memory`, and returns the
/// ExecEnv over those arrays.  `gate` must outlive the run.
template <bool kTrace>
inline ExecEnv begin_run(const MachineParams& params, const EngineOptions& options,
                         const CompiledProgram& cp, RunScratch& scratch, RunResult& out,
                         FaultGate& gate) {
  const int ports = cp.ports();
  obs::TraceSink* const sink = options.trace;
  if constexpr (kTrace) sink->begin_run_topology(cp.nodes(), ports);

  const bool faulted = options.faults && !options.faults->empty();
  if (faulted && (options.faults->topology()->ports() != ports ||
                  options.faults->topology()->id() != params.topology))
    throw ProgramError("fault model / machine dimension mismatch");
  gate = FaultGate{faulted ? options.faults : nullptr, options.retry, kTrace ? sink : nullptr,
                   ports, &cp.topology(), 0, 0.0};

  const std::size_t nactive = cp.active_links().size();
  scratch.ensure(static_cast<std::size_t>(cp.nodes()), nactive, cp.max_phase_sends());
  std::fill_n(scratch.link_free.begin(), nactive, 0.0);
  std::fill_n(scratch.link_busy_total.begin(), nactive, 0.0);
  for (const std::uint32_t x : cp.active_nodes()) {
    const auto xi = static_cast<std::size_t>(x);
    scratch.send_free[xi] = 0.0;
    scratch.recv_free[xi] = 0.0;
    scratch.node_done[xi] = 0.0;
  }

  out.total_time = 0.0;
  out.total_copy_time = 0.0;
  out.phases.resize(cp.phases().size());
  out.total_sends = 0;
  out.total_elements = 0;
  out.total_hops = 0;
  out.max_link_busy = 0.0;
  out.total_reroutes = 0;
  out.total_retries = 0;
  out.total_fault_wait = 0.0;

  ExecEnv env;
  env.sends = cp.send_ops().data();
  env.send_costs = cp.send_costs().data();
  env.link_pool = cp.link_pool().data();
  env.link_global = cp.active_links().data();
  env.topology = &cp.topology();
  env.params = &params;
  env.ports = ports;
  env.one_port = params.port == PortModel::one_port;
  env.link_free = scratch.link_free.data();
  env.link_busy_total = scratch.link_busy_total.data();
  env.send_free = scratch.send_free.data();
  env.recv_free = scratch.recv_free.data();
  env.node_done = scratch.node_done.data();
  env.pkt_hop = scratch.pkt_hop.data();
  env.sink = sink;
  env.gate = &gate;
  return env;
}

/// The run epilogue of both executors: final clock, fault counters and
/// the busiest link's cumulative busy time.
inline void end_run(const ExecEnv& env, const CompiledProgram& cp, double clock,
                    RunResult& out) {
  out.total_time = clock;
  out.total_retries = env.gate->retries;
  out.total_fault_wait = env.gate->down_wait;
  double max_busy = 0.0;
  for (std::size_t ci = 0; ci < cp.active_links().size(); ++ci)
    max_busy = std::max(max_busy, env.link_busy_total[ci]);
  out.max_link_busy = max_busy;
}

/// Charge `cost` to `node`, whose clock is read as max(node_done[x],
/// clock): entries touched this phase carry their accumulated value,
/// untouched ones a value from an earlier phase, <= that phase's end <=
/// clock, so the max reproduces a per-phase clock-fill bit-for-bit
/// without the O(nodes) reset.
template <bool kTrace>
inline void charge(const ExecEnv& env, std::int32_t phase_index, double clock,
                   PhaseStats& stats, word node, double cost, std::uint64_t bytes,
                   obs::EventKind kind) {
  double& done = env.node_done[static_cast<std::size_t>(node)];
  const double base = done > clock ? done : clock;
  if constexpr (kTrace) {
    if (kind == obs::EventKind::stage) {
      env.sink->stage(phase_index, node, bytes, base, base + cost);
    } else {
      env.sink->copy(phase_index, node, bytes, base, base + cost);
    }
  }
  done = base + cost;
  if (done > stats.end) stats.end = done;
}

/// Copies [begin, end), each first through `on_copy` (data mode moves
/// its slots there, so an empty-slot read throws before the charge).
template <bool kTrace, class OnCopy>
inline void run_copies(const ExecEnv& env, const CompiledProgram& cp, std::int32_t phase_index,
                       double clock, PhaseStats& stats, std::uint32_t begin, std::uint32_t end,
                       OnCopy&& on_copy) {
  for (std::uint32_t i = begin; i < end; ++i) {
    const CompiledCopy& c = cp.copy_ops()[i];
    on_copy(c);
    if (c.charged)
      charge<kTrace>(env, phase_index, clock, stats, c.node, c.cost,
                     std::uint64_t{c.count} * static_cast<std::uint64_t>(env.params->element_bytes),
                     obs::EventKind::copy);
  }
}

/// Staging charges [begin, end), each at its cost-table entry.
template <bool kTrace>
inline void run_stages(const ExecEnv& env, const CompiledProgram& cp, std::int32_t phase_index,
                       double clock, PhaseStats& stats, std::uint32_t begin, std::uint32_t end) {
  for (std::uint32_t i = begin; i < end; ++i) {
    const CompiledStage& st = cp.stage_ops()[i];
    const StageCost& c = cp.stage_costs()[st.cost];
    charge<kTrace>(env, phase_index, clock, stats, st.node, c.cost, c.bytes,
                   obs::EventKind::stage);
  }
}

/// The phase prologue of both executors, before any send is injected:
/// the stats row, `phase_begin`, pre-copies, staging charges and the
/// phase's share of the run totals.
template <bool kTrace, class OnCopy>
inline void open_phase(const ExecEnv& env, const CompiledProgram& cp, std::int32_t phase_index,
                       double clock, RunResult& out, OnCopy&& on_copy) {
  const CompiledPhase& ph = cp.phases()[static_cast<std::size_t>(phase_index)];
  PhaseStats& stats = out.phases[static_cast<std::size_t>(phase_index)];
  stats.label = ph.label;
  stats.start = clock;
  stats.end = 0.0;
  stats.copy_time = ph.copy_time;
  if constexpr (kTrace) env.sink->phase_begin(phase_index, ph.label, clock);
  run_copies<kTrace>(env, cp, phase_index, clock, stats, ph.pre_copy_begin, ph.pre_copy_end,
                     on_copy);
  run_stages<kTrace>(env, cp, phase_index, clock, stats, ph.stage_begin, ph.stage_end);
  stats.sends = ph.sends;
  stats.elements = ph.elements;
  stats.hops = ph.hops;
  out.total_sends += ph.sends;
  out.total_elements += ph.elements;
  out.total_hops += ph.hops;
  out.total_reroutes += ph.reroutes;
}

/// The phase epilogue of both executors, once every arrival is folded
/// into node_done and stats.end: scatter charges, post-copies, the
/// clamp of stats.end and `phase_end`.  Returns the next phase's clock.
template <bool kTrace, class OnCopy>
inline double close_phase(const ExecEnv& env, const CompiledProgram& cp,
                          std::int32_t phase_index, double clock, RunResult& out,
                          OnCopy&& on_copy) {
  const CompiledPhase& ph = cp.phases()[static_cast<std::size_t>(phase_index)];
  PhaseStats& stats = out.phases[static_cast<std::size_t>(phase_index)];
  run_stages<kTrace>(env, cp, phase_index, clock, stats, ph.post_stage_begin,
                    ph.post_stage_end);
  run_copies<kTrace>(env, cp, phase_index, clock, stats, ph.post_copy_begin, ph.post_copy_end,
                     on_copy);
  stats.end = std::max(stats.end, stats.start);
  if constexpr (kTrace) env.sink->phase_end(phase_index, stats.end);
  out.total_copy_time += stats.copy_time;
  return stats.end;
}

/// Cut-through: the whole route is reserved at once and the packet
/// arrives after route_len * tau + serialise; a cut-through send is one
/// event, never re-injected.  Single-thread engine only (see the file
/// comment).
template <bool kTrace, bool kLean, class OnDeliver>
inline void step_cut_through(const ExecEnv& env, std::int32_t phase_index,
                             const CompiledSend& s, double ready, std::uint64_t seq,
                             OnDeliver&& deliver) {
  const MachineParams& params = *env.params;
  const std::size_t bytes =
      static_cast<std::size_t>(s.count) * static_cast<std::size_t>(params.element_bytes);
  double start = ready;
  const std::uint32_t* links = env.link_pool + s.link_off;
  for (std::uint32_t i = 0; i < s.route_len; ++i)
    start = std::max(start, env.link_free[links[i]]);
  const double link_start = start;
  if (env.one_port) start = std::max(start, env.send_free[static_cast<std::size_t>(s.src)]);
  const double send_gate = start;
  if (env.one_port) start = std::max(start, env.recv_free[static_cast<std::size_t>(s.dst)]);
  const double recv_gate = start;
  if constexpr (kTrace) {
    if (send_gate > link_start)
      env.sink->port_wait(obs::EventKind::port_wait_send, phase_index, s.src, seq,
                          link_start, send_gate);
    if (recv_gate > send_gate)
      env.sink->port_wait(obs::EventKind::port_wait_recv, phase_index, s.dst, seq,
                          send_gate, recv_gate);
  }
  double serialise = env.send_costs[s.cost].serialise;
  if (!kLean && env.gate->model) {
    for (std::uint32_t i = 0; i < s.route_len; ++i)
      start = env.gate->acquire(env.link_global[links[i]], start, phase_index, seq);
    double deg = 1.0;
    for (std::uint32_t i = 0; i < s.route_len; ++i)
      deg = std::max(deg, env.gate->degrade(env.link_global[links[i]]));
    serialise *= deg;
  }
  const double arrive = start + static_cast<double>(s.route_len) * params.tau + serialise;
  if constexpr (kTrace) {
    if (s.rerouted) env.sink->reroute(phase_index, s.src, s.dst, seq, start);
    env.sink->send_begin(phase_index, s.src, s.dst, seq, bytes, start,
                         start + params.tau + serialise);
  }
  for (std::uint32_t i = 0; i < s.route_len; ++i) {
    const double lstart = start + static_cast<double>(i) * params.tau;
    const double lend = lstart + params.tau + serialise;
    env.link_free[links[i]] = lend;
    env.link_busy_total[links[i]] += lend - lstart;
    if constexpr (kTrace) {
      const std::uint32_t gli = env.link_global[links[i]];
      const word from = static_cast<word>(gli / static_cast<std::uint32_t>(env.ports));
      const int dim = static_cast<int>(gli % static_cast<std::uint32_t>(env.ports));
      env.sink->hop(phase_index, from, env.topology->neighbor(from, dim), dim, seq, bytes,
                    lstart, lend);
    }
  }
  if constexpr (kTrace)
    env.sink->send_end(phase_index, s.dst, s.src, seq, bytes, start, arrive);
  if (env.one_port) {
    env.send_free[static_cast<std::size_t>(s.src)] = start + params.tau + serialise;
    env.recv_free[static_cast<std::size_t>(s.dst)] = arrive;
  }
  deliver(s.dst, arrive);
}

/// Store-and-forward: one hop per event.  A non-final hop re-injects via
/// `forward`; the final hop reports via `deliver`.
template <bool kTrace, bool kLean, class OnForward, class OnDeliver>
inline void step_store_forward(const ExecEnv& env, std::int32_t phase_index,
                               std::uint32_t pid, const CompiledSend& s, double ready,
                               std::uint64_t seq, OnForward&& forward, OnDeliver&& deliver) {
  const std::uint32_t hop = env.pkt_hop[pid];
  const std::uint32_t ci = env.link_pool[s.link_off + hop];
  const bool first_hop = hop == 0;
  const bool last_hop = hop + 1 == s.route_len;

  double start = std::max(ready, env.link_free[ci]);
  const double link_start = start;
  if (env.one_port && first_hop)
    start = std::max(start, env.send_free[static_cast<std::size_t>(s.src)]);
  const double send_gate = start;
  if (env.one_port && last_hop)
    start = std::max(start, env.recv_free[static_cast<std::size_t>(s.dst)]);
  const double recv_gate = start;
  if constexpr (kTrace) {
    const std::uint32_t gli = env.link_global[ci];
    const word from = static_cast<word>(gli / static_cast<std::uint32_t>(env.ports));
    if (send_gate > link_start)
      env.sink->port_wait(obs::EventKind::port_wait_send, phase_index, from, seq,
                          link_start, send_gate);
    if (recv_gate > send_gate)
      env.sink->port_wait(obs::EventKind::port_wait_recv, phase_index, s.dst, seq,
                          send_gate, recv_gate);
  }
  double hop_cost = env.send_costs[s.cost].hop_cost;
  if (!kLean && env.gate->model) {
    const std::uint32_t gli = env.link_global[ci];
    start = env.gate->acquire(gli, start, phase_index, seq);
    hop_cost *= env.gate->degrade(gli);
  }

  const double end = start + hop_cost;
  env.link_free[ci] = end;
  env.link_busy_total[ci] += end - start;
  if (env.one_port && first_hop) env.send_free[static_cast<std::size_t>(s.src)] = end;
  if (env.one_port && last_hop) env.recv_free[static_cast<std::size_t>(s.dst)] = end;
  if constexpr (kTrace) {
    const std::size_t bytes =
        static_cast<std::size_t>(s.count) * static_cast<std::size_t>(env.params->element_bytes);
    const std::uint32_t gli = env.link_global[ci];
    const word from = static_cast<word>(gli / static_cast<std::uint32_t>(env.ports));
    const int dim = static_cast<int>(gli % static_cast<std::uint32_t>(env.ports));
    if (first_hop) {
      if (s.rerouted) env.sink->reroute(phase_index, s.src, s.dst, seq, start);
      env.sink->send_begin(phase_index, s.src, s.dst, seq, bytes, start, end);
    }
    env.sink->hop(phase_index, from, env.topology->neighbor(from, dim), dim, seq, bytes,
                  start, end);
    if (last_hop) env.sink->send_end(phase_index, s.dst, s.src, seq, bytes, start, end);
  }

  if (last_hop) {
    deliver(s.dst, end);
  } else {
    env.pkt_hop[pid] = hop + 1;
    forward(pid, end);
  }
}

}  // namespace nct::sim::detail
