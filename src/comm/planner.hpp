// LocationPlanner: emits phased programs from location-bit operations.
//
// The planner tracks which (node, slot) locations hold data (not which
// element — the engine owns payloads) and converts high-level operations
// into SendOp/CopyOp phases:
//
//  * parallel_swaps: one phase applying a set of disjoint location-bit
//    swaps to every occupied location.  A single node<->slot swap is one
//    step of the standard exchange algorithm; a node<->node swap is one
//    step of the stepwise 2D transpose (distance-2 communication,
//    Lemma 6); several disjoint swaps in one phase realise one round of
//    parallel swapping (Lemma 15).
//  * local permutations for slot relabelling.
//
// Message formation follows Section 8.1's buffering discussion: the slots
// a node must send form contiguous runs; they can be sent run-by-run
// (unbuffered: more start-ups, no copies), gathered into one message
// (buffered: one start-up, copy cost at both ends), or split at the
// threshold B_copy where one start-up costs as much as copying a run.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/location.hpp"
#include "fault/fault.hpp"
#include "sim/program.hpp"

namespace nct::comm {

enum class BufferMode { unbuffered, buffered, optimal };

struct BufferPolicy {
  BufferMode mode = BufferMode::buffered;
  /// For `optimal`: runs of at least this many elements are sent without
  /// copying; shorter runs are gathered into one buffered message.
  word b_copy_elements = 0;

  static BufferPolicy unbuffered() { return {BufferMode::unbuffered, 0}; }
  static BufferPolicy buffered() { return {BufferMode::buffered, 0}; }
  static BufferPolicy optimal(word b_copy) { return {BufferMode::optimal, b_copy}; }
};

/// Buffers reused by emit_sends across the groups of a phase, so a
/// planning loop allocates nothing per group once they have grown.
struct SendScratch {
  std::vector<std::pair<std::size_t, std::size_t>> runs;  ///< (first, count) slot runs.
  std::vector<sim::slot> small_src, small_dst;            ///< optimal: gathered short runs.
};

/// Number of sends emit_sends makes for the strictly ascending source
/// slots `src` under `policy` (for SendList::reserve).
std::size_t count_sends(std::span<const sim::slot> src, const BufferPolicy& policy,
                        SendScratch& scratch);

/// Appends to `phase` the sends of one group: node x moves the elements
/// at its strictly ascending slots `src` into slots `dst` of node y
/// along `route`.
/// The buffer policy decides how the group's contiguous slot runs form
/// messages, and adds the gather/scatter charges of buffered ones.
void emit_sends(sim::Phase& phase, word x, word y, std::span<const int> route,
                std::span<const sim::slot> src, std::span<const sim::slot> dst,
                const BufferPolicy& policy, int element_bytes, bool rerouted,
                SendScratch& scratch);

/// Order in which a multi-dimension route crosses its dimensions.
enum class RouteOrder { ascending, descending };

class LocationPlanner {
 public:
  /// `n` cube dimensions, `local_slots` slots per node.  `element_bytes`
  /// sizes the staging charges for buffered messages.
  LocationPlanner(int n, word local_slots, int element_bytes = 4);

  int n() const noexcept { return n_; }
  word local_slots() const noexcept { return local_slots_; }

  /// Failure-aware routing: subsequent swap phases route around the
  /// model's permanently-failed links (breadth-first detours; affected
  /// SendOps are marked rerouted).  Throws fault::FaultError from
  /// parallel_swaps if a sender/receiver pair is disconnected.  Transient
  /// faults are left to the engine's retry machinery.  Not owned; null
  /// (the default) restores healthy planning.
  void set_faults(const fault::FaultModel* faults) noexcept { faults_ = faults; }
  const fault::FaultModel* faults() const noexcept { return faults_; }

  /// Declare slots [0, slots_per_node) of nodes [0, nodes) occupied
  /// (slots_per_node == 0 means every slot).
  void occupy_nodes(word nodes, word slots_per_node = 0);

  /// Declare occupancy from an explicit memory image (non-empty slots).
  void occupy_from(const sim::Memory& mem);

  /// Emit one phase applying disjoint location-bit `swaps` to every
  /// occupied location.  Local movements are charged iff `charge_local`.
  void parallel_swaps(const std::vector<std::pair<LocBit, LocBit>>& swaps,
                      const BufferPolicy& policy, const std::string& label,
                      RouteOrder order = RouteOrder::descending, bool charge_local = true);

  /// Emit one phase permuting slots locally: slot s of node x moves to
  /// perm(x, s).  perm must be a bijection on each node's occupied slots.
  void local_permutation(const std::function<word(word, word)>& perm, bool charged,
                         const std::string& label);

  /// Append a hand-built phase (advanced planners); occupancy is updated
  /// from the phase's sends and copies.
  void append_phase(sim::Phase phase);

  const std::vector<std::vector<bool>>& occupancy() const noexcept { return occupied_; }

  /// Finalize and return the program.
  sim::Program take() &&;

 private:
  void apply_phase_to_occupancy(const sim::Phase& phase);

  int n_;
  word local_slots_;
  int element_bytes_;
  const fault::FaultModel* faults_ = nullptr;
  std::vector<std::vector<bool>> occupied_;
  sim::Program program_;
};

/// The exchange-algorithm driver (Definitions 10 and 11): tracks where
/// each element-address dimension currently lives and exchanges pairs of
/// dimensions.  The standard exchange algorithm uses monotone disjoint
/// sequences g(i), f(i); the general algorithm allows arbitrary pairs —
/// both reduce to location-bit swaps here.
class ExchangeSequence {
 public:
  ExchangeSequence(LocationPlanner& planner, LocationMap current);

  const LocationMap& current() const noexcept { return current_; }

  /// Exchange address dimensions g and f (one communication or local
  /// step, depending on where the two dimensions live).
  void exchange_dims(int g, int f, const BufferPolicy& policy, const std::string& label,
                     RouteOrder order = RouteOrder::descending, bool charge_local = true);

  /// Exchange several disjoint dimension pairs in a single phase (one
  /// round of parallel swapping, Lemma 15).
  void exchange_dims_parallel(const std::vector<std::pair<int, int>>& pairs,
                              const BufferPolicy& policy, const std::string& label,
                              RouteOrder order = RouteOrder::descending,
                              bool charge_local = true);

  /// True once the current map equals `goal`.
  bool reached(const LocationMap& goal) const { return current_ == goal; }

 private:
  LocationPlanner& planner_;
  LocationMap current_;
};

}  // namespace nct::comm
