#include "sim/compile.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "cube/bits.hpp"
#include "sim/engine.hpp"
#include "sim/exec_step.hpp"
#include "sim/fault_gate.hpp"
#include "sim/scratch.hpp"
#include "topology/hypercube.hpp"

namespace nct::sim {

namespace {

std::string node_slot_str(word node, slot s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "node %llu slot %llu",
                static_cast<unsigned long long>(node), static_cast<unsigned long long>(s));
  return buf;
}

[[noreturn]] void fail_slot(const char* what, word node, slot s) {
  throw ProgramError(std::string(what) + node_slot_str(node, s));
}

/// A per-program cost table under construction: one entry per distinct
/// key (send size or staged volume), found through a map behind a
/// last-hit check, since consecutive records almost always share it.
template <class Entry>
struct CostTable {
  std::vector<Entry>& table;
  std::unordered_map<std::uint64_t, std::uint32_t> by_key{};
  std::uint64_t last_key = ~std::uint64_t{0};
  std::uint32_t last = 0;

  /// The entry index of `key`, appending make() for a new key.
  template <class Make>
  std::uint32_t index(std::uint64_t key, Make make) {
    if (key == last_key) return last;
    const auto [it, fresh] = by_key.try_emplace(key, static_cast<std::uint32_t>(table.size()));
    if (fresh) {
      if (table.size() >= (std::size_t{1} << 30))  // CompiledSend::cost is 30 bits
        throw ProgramError("program has more than 2^30 distinct send or stage sizes");
      table.push_back(make());
    }
    last_key = key;
    last = it->second;
    return last;
  }
};

/// The executor, in data mode or timing-only mode, writing into a
/// caller-owned result so batch runs reuse its storage.  All mutable
/// run state lives in `scratch` and is reset O(active links + nodes)
/// per run; there is no per-phase barrier reset, because every
/// availability read is of the form max(x, value) with x >= the phase
/// start time, so a stale entry from an earlier phase (always <= that
/// phase's end <= the current phase start) can never influence a time.
/// The event queue is the calendar queue of scratch.hpp, which pops in
/// ascending ready time with ties on the global injection sequence —
/// the order that fixes every simulated time.
///
/// `kTrace` compiles the event-sink calls out of the hot loops, and
/// `kLean` (no sink, no fault model) additionally strips the fault
/// branches entirely: the sweep/tuner path runs pure availability
/// arithmetic.
template <bool kData, bool kTrace, bool kLean>
void run_compiled_into(const MachineParams& params, const EngineOptions& options,
                       const CompiledProgram& cp, RunScratch& scratch, RunResult& out) {
  detail::FaultGate gate;
  const detail::ExecEnv env = detail::begin_run<kTrace>(params, options, cp, scratch, out, gate);
  scratch.queue.clear();  // no-op unless a faulted run aborted mid-phase
  if constexpr (kData) {
    if (scratch.payload.size() < cp.max_phase_payload())
      scratch.payload.resize(cp.max_phase_payload());
  } else {
    out.memory.clear();
  }

  const auto& phases = cp.phases();
  const auto& sends = cp.send_ops();
  const auto& slot_pool = cp.slot_pool();
  double* const node_done = scratch.node_done.data();
  std::uint32_t* const pkt_hop = env.pkt_hop;
  const bool cut_through = params.switching == Switching::cut_through;

  double clock = 0.0;
  std::uint64_t global_seq = 0;

  auto apply_copy = [&](const CompiledCopy& c) {
    if constexpr (kData) {
      auto& local = out.memory[static_cast<std::size_t>(c.node)];
      scratch.copy_vals.resize(c.count);
      const slot* src = slot_pool.data() + c.slot_off;
      const slot* dst = src + c.count;
      for (std::uint32_t i = 0; i < c.count; ++i) {
        const word v = local[static_cast<std::size_t>(src[i])];
        if (v == kEmptySlot) fail_slot("copy reads empty ", c.node, src[i]);
        scratch.copy_vals[i] = v;
      }
      for (std::uint32_t i = 0; i < c.count; ++i)
        local[static_cast<std::size_t>(src[i])] = kEmptySlot;
      for (std::uint32_t i = 0; i < c.count; ++i)
        local[static_cast<std::size_t>(dst[i])] = scratch.copy_vals[i];
    }
  };

  std::int32_t phase_index = -1;
  for (const CompiledPhase& ph : phases) {
    ++phase_index;
    PhaseStats& stats = out.phases[static_cast<std::size_t>(phase_index)];

    // 1-2. Stats row, pre-copies and staging charges.
    detail::open_phase<kTrace>(env, cp, phase_index, clock, out, apply_copy);

    // 3. Data movement.  Reading every payload before emptying any source
    // slot gives every send the memory as of the start of this step
    // without copying the whole memory image.
    if constexpr (kData) {
      // Slot and payload offsets are running sums over the phase's
      // sends (see CompiledSend).
      Memory& mem = out.memory;
      word* const payload = scratch.payload.data();
      const slot* const phase_slots = slot_pool.data() + ph.slot_begin;
      const slot* src = phase_slots;
      word* pay = payload;
      for (std::uint32_t k = ph.send_begin; k < ph.send_end; ++k) {
        const CompiledSend& s = sends[k];
        const auto& local = mem[static_cast<std::size_t>(s.src)];
        for (std::uint32_t i = 0; i < s.count; ++i) {
          const word v = local[static_cast<std::size_t>(src[i])];
          if (v == kEmptySlot) fail_slot("send reads empty ", s.src, src[i]);
          pay[i] = v;
        }
        src += 2 * std::size_t{s.count};
        pay += s.count;
      }
      src = phase_slots;
      for (std::uint32_t k = ph.send_begin; k < ph.send_end; ++k) {
        const CompiledSend& s = sends[k];
        if (!s.keep_source) {
          auto& local = mem[static_cast<std::size_t>(s.src)];
          for (std::uint32_t i = 0; i < s.count; ++i)
            local[static_cast<std::size_t>(src[i])] = kEmptySlot;
        }
        src += 2 * std::size_t{s.count};
      }
      src = phase_slots;
      pay = payload;
      for (std::uint32_t k = ph.send_begin; k < ph.send_end; ++k) {
        const CompiledSend& s = sends[k];
        auto& local = mem[static_cast<std::size_t>(s.dst)];
        const slot* dst = src + s.count;
        for (std::uint32_t i = 0; i < s.count; ++i)
          local[static_cast<std::size_t>(dst[i])] = pay[i];
        src += 2 * std::size_t{s.count};
        pay += s.count;
      }
    }

    // 4. Timing: event-driven with link and port contention.  Packets
    // are identified by their injection index within the phase (pid);
    // the global sequence number used for tie-breaks and trace events
    // is seq_base + pid: sends are numbered in program order across the
    // whole run.
    const std::uint32_t nsends = ph.send_end - ph.send_begin;
    const std::uint64_t seq_base = global_seq;
    global_seq += nsends;
    detail::CalendarQueue& queue = scratch.queue;
    queue.begin_phase(clock, cp.event_dt_hint());
    for (std::uint32_t pid = 0; pid < nsends; ++pid) {
      const double nd = node_done[static_cast<std::size_t>(sends[ph.send_begin + pid].src)];
      queue.push(pid, nd > clock ? nd : clock);
      if (!cut_through) pkt_hop[pid] = 0;
    }

    const auto deliver = [&](word dst, double end) {
      double& dst_done = node_done[static_cast<std::size_t>(dst)];
      if (end > dst_done) dst_done = end;
      if (end > stats.end) stats.end = end;
    };
    const auto forward = [&](std::uint32_t pid, double end) { queue.push(pid, end); };

    while (!queue.empty()) {
      const detail::CalendarQueue::Event ev = queue.pop();
      const CompiledSend& s = sends[ph.send_begin + ev.pid];
      const std::uint64_t seq = seq_base + ev.pid;
      if (cut_through) {
        detail::step_cut_through<kTrace, kLean>(env, phase_index, s, ev.ready, seq, deliver);
      } else {
        detail::step_store_forward<kTrace, kLean>(env, phase_index, ev.pid, s, ev.ready, seq,
                                                  forward, deliver);
      }
    }

    // 5-6. Scatter charges and post-copies.
    clock = detail::close_phase<kTrace>(env, cp, phase_index, clock, out, apply_copy);
  }

  detail::end_run(env, cp, clock, out);
}

template <bool kData>
void run_compiled(const MachineParams& params, const EngineOptions& options,
                  const CompiledProgram& cp, RunScratch& scratch, RunResult& out) {
  if (options.trace) {
    run_compiled_into<kData, true, false>(params, options, cp, scratch, out);
  } else if (options.faults && !options.faults->empty()) {
    run_compiled_into<kData, false, false>(params, options, cp, scratch, out);
  } else {
    run_compiled_into<kData, false, true>(params, options, cp, scratch, out);
  }
}

/// One scratch per thread serves every run that does not bring its own:
/// steady-state calls of the classic API stop allocating availability
/// arrays, and concurrent sweeps stay isolated.
RunScratch& thread_scratch() {
  static thread_local RunScratch scratch;
  return scratch;
}

}  // namespace

CompiledProgram compile(const Program& program, const MachineParams& machine) {
  if (program.n != machine.n) throw ProgramError("program/machine dimension mismatch");
  if (program.topology != machine.topology)
    throw ProgramError("program/machine topology mismatch");

  // Node ids, slots and link ids are stored as uint32_t (send records,
  // slot pool, link pool): a larger id space would wrap silently, so it
  // is refused before anything O(nodes) is allocated.
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  if (program.local_slots > k32)
    throw ProgramError("program has more local slots than 32-bit slots address");

  CompiledProgram cp;
  cp.n_ = program.n;
  cp.local_slots_ = program.local_slots;
  cp.topology_ = topo::make_topology(machine.topology, machine.n);
  if (cp.topology_->nodes() > k32)
    throw ProgramError("machine has more nodes than 32-bit node ids address");
  if (cp.topology_->link_slots() > k32)
    throw ProgramError("machine has more directed links than 32-bit link ids address");
  cp.nodes_ = cp.topology_->nodes();
  cp.ports_ = cp.topology_->ports();
  cp.machine_ = machine;

  const topo::Topology& topology = *cp.topology_;
  const int ports = cp.ports_;
  const word nnodes = program.nodes();
  const word nslots = program.local_slots;

  std::size_t n_sends = 0, n_copies = 0, n_stages = 0, n_slots = 0, n_links = 0;
  for (const Phase& ph : program.phases) {
    n_sends += ph.sends.size();
    n_copies += ph.pre_copies.size() + ph.post_copies.size();
    n_stages += ph.stage.size() + ph.post_stage.size();
    n_slots += 2 * ph.sends.total_elements();
    n_links += ph.sends.total_hops();
    for (const CopyOp& op : ph.pre_copies) n_slots += 2 * op.src_slots.size();
    for (const CopyOp& op : ph.post_copies) n_slots += 2 * op.src_slots.size();
  }
  cp.phases_.reserve(program.phases.size());
  cp.sends_.reserve(n_sends);
  cp.copies_.reserve(n_copies);
  cp.stages_.reserve(n_stages);
  cp.slot_pool_.reserve(n_slots);
  cp.link_pool_.reserve(n_links);

  // Epoch-stamped delivery map: detects double delivery within a phase
  // without an O(nodes * slots) clear per phase.  On huge machines the
  // dense map itself is the problem, so past a size threshold the check
  // switches to sorting each phase's delivered (node, slot) keys —
  // O(deliveries log deliveries), independent of machine size.
  constexpr std::size_t kDenseDeliveredLimit = std::size_t{1} << 24;
  const std::size_t delivered_slots =
      static_cast<std::size_t>(nnodes) * static_cast<std::size_t>(nslots);
  const bool dense_delivered = delivered_slots <= kDenseDeliveredLimit;
  std::vector<std::uint32_t> delivered(dense_delivered ? delivered_slots : 0, 0);
  std::vector<std::uint64_t> delivered_keys;  // sparse fallback, per phase.
  std::uint32_t epoch = 0;

  // Active-node membership is a plain O(nodes) byte map (node-indexed
  // run state stays dense); the active-*link* set is ranked after the
  // loop with a bitmap over the link space (see the end of compile).
  std::vector<std::uint8_t> node_seen(static_cast<std::size_t>(nnodes), 0);
  const auto see_node = [&](word x) { node_seen[static_cast<std::size_t>(x)] = 1; };

  const auto pack_copy = [&](const CopyOp& op) {
    if (op.src_slots.size() != op.dst_slots.size())
      throw ProgramError("copy op slot count mismatch");
    if (op.node >= nnodes) throw ProgramError("copy op node out of range");
    if (cp.slot_pool_.size() + 2 * op.src_slots.size() > k32)
      throw ProgramError("slot pool exceeds 32-bit copy offsets");
    see_node(op.node);
    CompiledCopy c;
    c.node = op.node;
    c.slot_off = static_cast<std::uint32_t>(cp.slot_pool_.size());
    c.count = static_cast<std::uint32_t>(op.src_slots.size());
    c.charged = op.charged;
    if (op.charged)
      c.cost = static_cast<double>(op.elements()) * machine.element_tcopy();
    for (const slot s : op.src_slots) {
      if (s >= nslots) throw ProgramError("copy src slot out of range");
      cp.slot_pool_.push_back(s);
    }
    for (const slot s : op.dst_slots) {
      if (s >= nslots) throw ProgramError("copy dst slot out of range");
      cp.slot_pool_.push_back(s);
    }
    cp.copies_.push_back(c);
  };

  CostTable<SendCost> send_costs{cp.send_costs_};
  CostTable<StageCost> stage_costs{cp.stage_costs_};

  const auto pack_stage = [&](const StageOp& op, const char* kind) {
    if (op.node >= nnodes) throw ProgramError(std::string(kind) + " op node out of range");
    see_node(op.node);
    const std::uint32_t cost = stage_costs.index(op.bytes, [&] {
      return StageCost{op.bytes, static_cast<double>(op.bytes) * machine.tcopy};
    });
    cp.stages_.push_back(CompiledStage{static_cast<std::uint32_t>(op.node), cost});
    return cp.stage_costs_[cost].cost;
  };

  const bool cut_through = machine.switching == Switching::cut_through;

  for (const Phase& phase : program.phases) {
    CompiledPhase ph;
    ph.label = phase.label;

    ph.pre_copy_begin = static_cast<std::uint32_t>(cp.copies_.size());
    for (const CopyOp& op : phase.pre_copies) {
      pack_copy(op);
      if (op.charged) ph.copy_time += cp.copies_.back().cost;
    }
    ph.pre_copy_end = static_cast<std::uint32_t>(cp.copies_.size());

    ph.stage_begin = static_cast<std::uint32_t>(cp.stages_.size());
    for (const StageOp& op : phase.stage) {
      ph.copy_time += pack_stage(op, "stage");
    }
    ph.stage_end = static_cast<std::uint32_t>(cp.stages_.size());

    ph.send_begin = static_cast<std::uint32_t>(cp.sends_.size());
    ph.slot_begin = cp.slot_pool_.size();
    ++epoch;
    delivered_keys.clear();
    double ph_min_dt = std::numeric_limits<double>::infinity();
    std::uint32_t payload_off = 0;
    for (const SendOp& op : phase.sends) {
      if (op.src >= nnodes) throw ProgramError("send src out of range");
      if (op.route.empty()) throw ProgramError("send with empty route");

      CompiledSend s;
      s.src = static_cast<std::uint32_t>(op.src);
      s.count = static_cast<std::uint32_t>(op.src_slots.size());
      s.link_off = static_cast<std::uint32_t>(cp.link_pool_.size());
      s.route_len = static_cast<std::uint32_t>(op.route.size());
      s.cost = send_costs.index(op.elements(), [&] {
        const std::size_t bytes = op.elements() * static_cast<std::size_t>(machine.element_bytes);
        return SendCost{machine.hop_time(bytes), static_cast<double>(bytes) * machine.tc};
      });
      s.keep_source = op.keep_source;
      s.rerouted = op.rerouted;
      if (op.rerouted) ph.reroutes += 1;
      payload_off += s.count;

      word at = op.src;
      for (const int d : op.route) {
        if (d < 0 || d >= ports) throw ProgramError("route dimension out of range");
        const std::size_t li = topology.link_index(at, d);
        const word next = topology.neighbor(at, d);
        if (next == topo::kNoNode) throw ProgramError("route crosses an unwired port");
        cp.link_pool_.push_back(static_cast<std::uint32_t>(li));
        at = next;
      }
      s.dst = static_cast<std::uint32_t>(at);
      see_node(s.src);
      see_node(s.dst);

      for (const slot sl : op.src_slots) {
        if (sl >= nslots) throw ProgramError("send src slot out of range");
        cp.slot_pool_.push_back(sl);
      }
      const std::size_t dst_base =
          static_cast<std::size_t>(s.dst) * static_cast<std::size_t>(nslots);
      for (const slot sl : op.dst_slots) {
        if (sl >= nslots) throw ProgramError("send dst slot out of range");
        if (dense_delivered) {
          if (delivered[dst_base + static_cast<std::size_t>(sl)] == epoch)
            fail_slot("double delivery to ", s.dst, sl);
          delivered[dst_base + static_cast<std::size_t>(sl)] = epoch;
        } else {
          delivered_keys.push_back(static_cast<std::uint64_t>(dst_base) +
                                   static_cast<std::uint64_t>(sl));
        }
        cp.slot_pool_.push_back(sl);
      }

      // Natural event spacing for the calendar queue's bucket width,
      // and the conservative lookahead of the phase (its minimum).
      const SendCost& cost = cp.send_costs_[s.cost];
      const double dt = cut_through ? machine.tau + cost.serialise : cost.hop_cost;
      if (dt > 0.0 && (cp.event_dt_hint_ == 0.0 || dt < cp.event_dt_hint_))
        cp.event_dt_hint_ = dt;
      ph_min_dt = std::min(ph_min_dt, dt);

      ph.sends += 1;
      ph.elements += s.count;
      ph.hops += s.route_len;
      cp.sends_.push_back(s);
    }
    ph.send_end = static_cast<std::uint32_t>(cp.sends_.size());
    ph.lookahead = ph_min_dt > 0.0 && ph_min_dt < std::numeric_limits<double>::infinity()
                       ? ph_min_dt
                       : 0.0;
    if (!dense_delivered && !delivered_keys.empty()) {
      std::sort(delivered_keys.begin(), delivered_keys.end());
      const auto dup = std::adjacent_find(delivered_keys.begin(), delivered_keys.end());
      if (dup != delivered_keys.end())
        fail_slot("double delivery to ", static_cast<word>(*dup / nslots),
                  static_cast<slot>(*dup % nslots));
    }
    ph.payload_elems = payload_off;
    cp.max_phase_payload_ =
        std::max(cp.max_phase_payload_, static_cast<std::size_t>(payload_off));
    cp.max_phase_sends_ = std::max(
        cp.max_phase_sends_, static_cast<std::size_t>(ph.send_end - ph.send_begin));

    ph.post_stage_begin = static_cast<std::uint32_t>(cp.stages_.size());
    for (const StageOp& op : phase.post_stage) {
      ph.copy_time += pack_stage(op, "post-stage");
    }
    ph.post_stage_end = static_cast<std::uint32_t>(cp.stages_.size());

    ph.post_copy_begin = static_cast<std::uint32_t>(cp.copies_.size());
    for (const CopyOp& op : phase.post_copies) {
      pack_copy(op);
      if (op.charged) ph.copy_time += cp.copies_.back().cost;
    }
    ph.post_copy_end = static_cast<std::uint32_t>(cp.copies_.size());

    cp.phases_.push_back(std::move(ph));
  }

  // Compact the link space: active_links_ is the sorted unique set of
  // global link ids the program traverses, and the link pool is remapped
  // onto indices into it.  Run-time link state is then O(active links),
  // which is what lets a 20-cube program fit in bounded memory.
  //
  // The rank of a link id among the used ones is its compact index: one
  // bit per id in a bitmap over the link space, plus the popcount of all
  // earlier words, gives it in O(hops + link_slots / 64) without a sort.
  // The two temporaries cost ports/8 + ports/16 bytes per node (0.9 MiB
  // at 18 cubes, 3.75 MiB at 20) and are freed on return: far below the
  // 24 bytes per node of node clocks every run allocates (scratch.hpp).
  const std::size_t words = (topology.link_slots() + 63) / 64;
  std::vector<std::uint64_t> used(words, 0);
  for (const std::uint32_t li : cp.link_pool_) used[li >> 6] |= std::uint64_t{1} << (li & 63);
  std::vector<std::uint32_t> rank_base(words);
  std::size_t n_active = 0;
  for (std::size_t w = 0; w < words; ++w) {
    rank_base[w] = static_cast<std::uint32_t>(n_active);
    n_active += static_cast<std::size_t>(std::popcount(used[w]));
  }
  cp.active_links_.reserve(n_active);
  for (std::size_t w = 0; w < words; ++w)
    for (std::uint64_t bits = used[w]; bits != 0; bits &= bits - 1)
      cp.active_links_.push_back(static_cast<std::uint32_t>(w * 64) +
                                 static_cast<std::uint32_t>(std::countr_zero(bits)));
  for (std::uint32_t& li : cp.link_pool_) {
    const std::uint64_t below = (std::uint64_t{1} << (li & 63)) - 1;
    li = rank_base[li >> 6] + static_cast<std::uint32_t>(std::popcount(used[li >> 6] & below));
  }
  cp.active_nodes_.reserve(static_cast<std::size_t>(
      std::count(node_seen.begin(), node_seen.end(), std::uint8_t{1})));
  for (std::size_t x = 0; x < static_cast<std::size_t>(nnodes); ++x)
    if (node_seen[x]) cp.active_nodes_.push_back(static_cast<std::uint32_t>(x));

  return cp;
}

RunResult Engine::run(const CompiledProgram& compiled, Memory initial) const {
  if (!detail::same_machine(compiled.machine(), params_))
    throw ProgramError("compiled program / engine machine mismatch");
  if (initial.size() != compiled.nodes())
    throw ProgramError("initial memory has wrong node count");
  for (const auto& m : initial) {
    if (m.size() != compiled.local_slots())
      throw ProgramError("node memory has wrong slot count");
  }
  RunResult result;
  result.memory = std::move(initial);
  run_compiled<true>(params_, options_, compiled, thread_scratch(), result);
  return result;
}

RunResult Engine::run_timing(const CompiledProgram& compiled) const {
  RunResult result;
  run_timing(compiled, thread_scratch(), result);
  return result;
}

void Engine::run_timing(const CompiledProgram& compiled, RunScratch& scratch,
                        RunResult& out) const {
  if (!detail::same_machine(compiled.machine(), params_))
    throw ProgramError("compiled program / engine machine mismatch");
  run_compiled<false>(params_, options_, compiled, scratch, out);
}

}  // namespace nct::sim
