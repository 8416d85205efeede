// Program compilation: flatten a phased communication Program into
// contiguous structure-of-arrays pools, validated once against a fixed
// machine.  This is the only way a Program executes: Engine::run(Program,
// Memory) is compile() followed by a data-mode run.
//
// A Program's sends are stored flat per phase (`SendList`), its copies as
// `CopyOp` records with their own slot lists.  `compile()` walks them
// exactly once:
//
//  * all slot lists are packed into one slot pool, all routes into one
//    pool of precomputed directed-link indices (`topo::link_index`), with
//    per-op {offset, length} records;
//  * destination nodes, per-hop store-and-forward times, cut-through
//    serialisation times and copy/staging charges are precomputed for the
//    given `MachineParams`, so a run only adds and compares doubles.  Send
//    and staging costs are kept once per distinct message size or staged
//    volume, in two small tables the records index;
//  * every structural property that raises `ProgramError` (operand
//    ranges, route dimensions, copy slot-count mismatches, double delivery
//    within a phase) is checked here, once, for the whole program before
//    any phase executes.  Only the data-dependent "read of an empty
//    slot" check remains at run time, and only in data mode.
//
// Execution of a compiled program comes in two modes (see engine.hpp):
//  * data mode — `Engine::run(compiled, initial)` moves payloads and
//    returns times, stats and the final memory;
//  * timing-only mode — `Engine::run_timing(compiled)` computes the same
//    times, stats and event stream without touching any memory image,
//    for parameter sweeps whose data correctness was already established
//    by a data-mode run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/model.hpp"
#include "sim/program.hpp"
#include "topology/topology.hpp"

namespace nct::sim {

/// The time costs of one message size on the compiled machine.  Both
/// are pure functions of the message's bytes, so a program keeps one
/// entry per distinct send size (CompiledProgram::send_costs(); the
/// 18-cube SPT stepwise exchange has one) and every send indexes it.
struct SendCost {
  double hop_cost = 0.0;   ///< store-and-forward: time per hop.
  double serialise = 0.0;  ///< cut-through: payload serialisation time.
};

/// A send flattened against a fixed machine: the 24-byte record every
/// timed event reads.  Node ids are 32-bit (compile refuses machines
/// past 2^32 nodes); the route's compact link ids sit at
/// [link_off, link_off + route_len) of the link pool, and the send's
/// costs at send_costs()[cost].  Slot and payload offsets are not
/// stored: within a phase, send k's source slots follow send k-1's
/// destination slots in the slot pool (from CompiledPhase::slot_begin),
/// source then destination, `count` each, and its payload follows send
/// k-1's in the phase payload arena, so data mode derives both as
/// running offsets and the timing loop never touches them.
struct CompiledSend {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;        ///< route endpoint, precomputed.
  std::uint32_t link_off = 0;
  std::uint32_t route_len = 0;
  std::uint32_t count = 0;      ///< elements carried.
  std::uint32_t cost : 30 = 0;  ///< index into CompiledProgram::send_costs().
  std::uint32_t keep_source : 1 = 0;
  std::uint32_t rerouted : 1 = 0;  ///< see SendOp::rerouted.
};
static_assert(sizeof(CompiledSend) <= 24, "the hot send record must stay within 24 bytes");

/// A local copy; source slots at [slot_off, +count), destinations at
/// [slot_off + count, +count) of the slot pool.
struct CompiledCopy {
  word node = 0;
  std::uint32_t slot_off = 0;
  std::uint32_t count = 0;
  bool charged = false;
  double cost = 0.0;  ///< precomputed charge (0 when uncharged).
};

/// The charge of one staged volume, shared by every stage of that
/// volume through CompiledProgram::stage_costs().
struct StageCost {
  std::uint64_t bytes = 0;  ///< staged volume (event tracing only).
  double cost = 0.0;
};

/// A staging charge: its node and an index into stage_costs().
struct CompiledStage {
  std::uint32_t node = 0;
  std::uint32_t cost = 0;
};

/// Half-open index ranges into the per-op record arrays, plus the phase
/// statistics that are knowable at compile time.
struct CompiledPhase {
  std::string label;
  std::uint32_t pre_copy_begin = 0, pre_copy_end = 0;
  std::uint32_t stage_begin = 0, stage_end = 0;
  std::uint32_t send_begin = 0, send_end = 0;
  std::uint32_t post_stage_begin = 0, post_stage_end = 0;
  std::uint32_t post_copy_begin = 0, post_copy_end = 0;
  std::size_t slot_begin = 0;       ///< slot-pool offset of the first send's slots.
  std::uint32_t payload_elems = 0;  ///< data-mode payload arena size.
  std::uint32_t reroutes = 0;       ///< sends planned on detour routes.
  std::size_t sends = 0;
  std::size_t elements = 0;
  std::size_t hops = 0;
  double copy_time = 0.0;  ///< summed charged copy/staging time.
  /// Conservative lookahead of the phase: the smallest per-event time
  /// increment of any of its sends (store-and-forward: hop cost;
  /// cut-through: header + serialisation).  Every re-injected event
  /// lands at least this far past its predecessor's ready time — fault
  /// degradation only multiplies costs by factors >= 1 — so a barrier
  /// window of this width is null-message-free (see shard/engine.hpp).
  /// 0 when the phase has a zero-cost send (no usable lookahead) or no
  /// sends at all.
  double lookahead = 0.0;
};

/// A Program validated and flattened for one machine.  Immutable after
/// compile(); safe to share across threads (each run keeps its own
/// scratch state).
class CompiledProgram {
 public:
  int n() const noexcept { return n_; }
  word nodes() const noexcept { return nodes_; }
  word local_slots() const noexcept { return local_slots_; }
  const MachineParams& machine() const noexcept { return machine_; }
  /// Ports per node of the target topology (the directed-link stride;
  /// == n on the cube).
  int ports() const noexcept { return ports_; }
  /// The interconnect the program was compiled for.
  const topo::Topology& topology() const noexcept { return *topology_; }

  const std::vector<CompiledPhase>& phases() const noexcept { return phases_; }
  const std::vector<CompiledSend>& send_ops() const noexcept { return sends_; }
  const std::vector<CompiledCopy>& copy_ops() const noexcept { return copies_; }
  const std::vector<CompiledStage>& stage_ops() const noexcept { return stages_; }
  /// Distinct send costs, indexed by CompiledSend::cost.
  const std::vector<SendCost>& send_costs() const noexcept { return send_costs_; }
  /// Distinct staging charges, indexed by CompiledStage::cost.
  const std::vector<StageCost>& stage_costs() const noexcept { return stage_costs_; }
  const std::vector<slot>& slot_pool() const noexcept { return slot_pool_; }
  /// Per-hop link ids of every route, as *compact* active-link indices
  /// in [0, active_links().size()).  The run-time link arrays are sized
  /// and indexed by compact id, so a sparse program on a huge machine
  /// runs in O(links it actually uses); the global topo::link_index of
  /// compact id c is active_links()[c].  Only compile() touches the
  /// whole link space, through a ranking bitmap of ports/8 + ports/16
  /// bytes per node that it frees on return (0.9 MiB at 18 cubes): less
  /// than the 24 bytes per node of node clocks every run allocates.
  const std::vector<std::uint32_t>& link_pool() const noexcept { return link_pool_; }

  /// Largest payload arena any phase needs in data mode.
  std::size_t max_phase_payload() const noexcept { return max_phase_payload_; }

  /// Total messages across all phases.
  std::size_t total_sends() const noexcept { return sends_.size(); }
  /// Total message-hops across all phases.
  std::size_t total_hops() const noexcept { return link_pool_.size(); }

  /// Directed links the program ever traverses, as global
  /// topo::link_index values (sorted, unique).  Doubles as the
  /// compact-to-global map for link_pool(): active_links()[c] is the
  /// global id of compact index c.  Run-time link state is sized by
  /// active_links().size(), so scratch reuse and memory are O(active
  /// state) instead of O(machine).
  const std::vector<std::uint32_t>& active_links() const noexcept { return active_links_; }
  /// Nodes the program ever touches as source, destination, copy or
  /// stage site (sorted, unique); the node-clock analogue of
  /// active_links().
  const std::vector<std::uint32_t>& active_nodes() const noexcept { return active_nodes_; }
  /// Largest send count of any single phase (sizes the event queue's
  /// packet-state arrays).
  std::size_t max_phase_sends() const noexcept { return max_phase_sends_; }
  /// Smallest positive per-event time increment of any send (hop cost,
  /// or header+serialisation under cut-through): the natural bucket
  /// width for the calendar event queue.  0 when every cost is zero.
  double event_dt_hint() const noexcept { return event_dt_hint_; }

  /// Heap bytes the program's pools hold: the summed capacity of its
  /// sends, copies, stages, cost tables, slot and link pools, active
  /// links and nodes, and phases with their labels.  The weight of an entry in
  /// the server's compiled-program cache (serve/program_cache.hpp).
  std::size_t heap_bytes() const noexcept {
    std::size_t bytes = phases_.capacity() * sizeof(CompiledPhase) +
                        sends_.capacity() * sizeof(CompiledSend) +
                        copies_.capacity() * sizeof(CompiledCopy) +
                        stages_.capacity() * sizeof(CompiledStage) +
                        send_costs_.capacity() * sizeof(SendCost) +
                        stage_costs_.capacity() * sizeof(StageCost) +
                        slot_pool_.capacity() * sizeof(slot) +
                        link_pool_.capacity() * sizeof(std::uint32_t) +
                        active_links_.capacity() * sizeof(std::uint32_t) +
                        active_nodes_.capacity() * sizeof(std::uint32_t);
    for (const CompiledPhase& p : phases_) bytes += p.label.capacity();
    return bytes;
  }

 private:
  friend CompiledProgram compile(const Program&, const MachineParams&);

  int n_ = 0;
  word nodes_ = 1;
  int ports_ = 0;
  word local_slots_ = 0;
  std::shared_ptr<const topo::Topology> topology_;
  MachineParams machine_;
  std::vector<CompiledPhase> phases_;
  std::vector<CompiledSend> sends_;
  std::vector<CompiledCopy> copies_;   ///< pre and post copies, pooled.
  std::vector<CompiledStage> stages_;  ///< stage and post-stage, pooled.
  std::vector<SendCost> send_costs_;
  std::vector<StageCost> stage_costs_;
  std::vector<slot> slot_pool_;
  std::vector<std::uint32_t> link_pool_;
  std::vector<std::uint32_t> active_links_;
  std::vector<std::uint32_t> active_nodes_;
  std::size_t max_phase_payload_ = 0;
  std::size_t max_phase_sends_ = 0;
  double event_dt_hint_ = 0.0;
};

/// One-pass compile of `program` against `machine`.  Throws ProgramError
/// on any structural violation (including double delivery, which is
/// data-independent), and, before allocating anything O(nodes), for a
/// program past the 32-bit record fields: more than 2^32 nodes or
/// local slots, or directed links that do not fit 32-bit link ids
/// (topology().link_slots() > 2^32).
CompiledProgram compile(const Program& program, const MachineParams& machine);

}  // namespace nct::sim
