// Phased communication programs.
//
// Every algorithm in the library is a *planner*: it emits a Program — a
// sequence of phases, each containing node-local copy operations and
// message sends with explicit routes and memory slots.  The engine
// executes a Program against a machine model, moving real element
// payloads between node memories and computing the simulated time.  The
// same Program is therefore both the timing artifact (reproducing the
// paper's measurements) and the correctness artifact (the final node
// memories must match the target distribution).
//
// Phase semantics (synchronous message passing):
//   1. pre-copies run on each node's live memory (atomically per op);
//   2. all sends read their source slots from a snapshot taken after the
//      pre-copies, so concurrent exchanges swap cleanly;
//   3. data arrives; writing the same destination slot twice in a phase
//      is an error;
//   4. post-copies run (e.g. the local shuffle of the blocked array in
//      the one-dimensional exchange algorithm);
//   5. a global barrier separates phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cube/bits.hpp"
#include "topology/topology.hpp"

namespace nct::sim {

using cube::word;

/// Slot index within a node's local memory.  32 bits: a program's
/// local_slots is at most 2^32 (sim::compile and the router refuse
/// more), and the slot lists are the bulk of a plan's and a compiled
/// program's memory.
using slot = std::uint32_t;

/// Raised when a program violates the execution model (bad slot, double
/// delivery, reading an empty slot, ...).  Always a planner bug.
class ProgramError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-send markers (see SendOp).
struct SendFlags {
  bool keep_source = false;
  bool rerouted = false;
};

/// A message: injected at `src`, traverses `route` (cube dimensions in
/// order), delivering the elements read from `src_slots` into `dst_slots`
/// of the final node.  A read-only view into the SendList that owns the
/// send; it is valid until that list is next modified or destroyed.
struct SendOp {
  word src = 0;
  std::span<const int> route;
  std::span<const slot> src_slots;
  std::span<const slot> dst_slots;
  /// Broadcast semantics: the source retains its copy (the data is
  /// replicated rather than moved).
  bool keep_source = false;
  /// Planner marker: the route is a detour around faulty links (not the
  /// route the healthy plan would use).  The engine emits a `reroute`
  /// trace event at injection for each marked send.
  bool rerouted = false;

  std::size_t elements() const noexcept { return src_slots.size(); }
};

/// The sends of one phase, stored flat: per-send source node, flags and
/// end offsets, plus one pool each of route entries, source slots and
/// destination slots, in send order.  A send costs 17 bytes of per-send
/// arrays plus 4 bytes per route entry and 8 per element, in a fixed
/// number of heap blocks however many sends there are.  The pools only
/// grow through add(), so two lists compare equal exactly when they hold
/// the same sends in the same order.
class SendList {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SendOp;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SendOp;

    iterator() = default;
    iterator(const SendList* list, std::size_t i) noexcept : list_(list), i_(i) {}
    SendOp operator*() const noexcept { return (*list_)[i_]; }
    iterator& operator++() noexcept { ++i_; return *this; }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const SendList* list_ = nullptr;
    std::size_t i_ = 0;
  };

  std::size_t size() const noexcept { return src_.size(); }
  bool empty() const noexcept { return src_.empty(); }
  iterator begin() const noexcept { return {this, 0}; }
  iterator end() const noexcept { return {this, size()}; }

  SendOp operator[](std::size_t i) const noexcept {
    const std::size_t r0 = i ? route_end_[i - 1] : 0;
    const std::size_t s0 = i ? slot_end_[i - 1] : 0;
    const std::size_t count = slot_end_[i] - s0;
    return SendOp{src_[i],
                  {routes_.data() + r0, route_end_[i] - r0},
                  {src_slots_.data() + s0, count},
                  {dst_slots_.data() + s0, count},
                  (flags_[i] & kKeepSource) != 0,
                  (flags_[i] & kRerouted) != 0};
  }
  SendOp at(std::size_t i) const {
    if (i >= size()) throw std::out_of_range("SendList::at");
    return (*this)[i];
  }

  /// Sizes every array for `sends` more sends carrying `route_entries`
  /// route entries and `slots` elements in all, so the adds that follow
  /// never reallocate.  Like std::vector::reserve, it allocates exactly
  /// what is asked: call it once before a run of adds, not per add.
  void reserve(std::size_t sends, std::size_t route_entries, std::size_t slots) {
    src_.reserve(src_.size() + sends);
    flags_.reserve(flags_.size() + sends);
    route_end_.reserve(route_end_.size() + sends);
    slot_end_.reserve(slot_end_.size() + sends);
    routes_.reserve(routes_.size() + route_entries);
    src_slots_.reserve(src_slots_.size() + slots);
    dst_slots_.reserve(dst_slots_.size() + slots);
  }

  /// Appends one send.  Throws ProgramError when the slot lists differ in
  /// length, or when the route or slot pool would pass 2^32 entries (the
  /// end offsets are 32-bit and must not wrap).
  void add(word src, std::span<const int> route, std::span<const slot> src_slots,
           std::span<const slot> dst_slots, SendFlags flags = {}) {
    if (src_slots.size() != dst_slots.size()) throw ProgramError("send slot count mismatch");
    constexpr std::size_t kMaxPool = std::numeric_limits<std::uint32_t>::max();
    if (route.size() > kMaxPool - routes_.size() ||
        src_slots.size() > kMaxPool - src_slots_.size())
      throw ProgramError("send list pools exceed 32-bit offsets");
    src_.push_back(src);
    flags_.push_back(static_cast<std::uint8_t>((flags.keep_source ? kKeepSource : 0) |
                                               (flags.rerouted ? kRerouted : 0)));
    routes_.insert(routes_.end(), route.begin(), route.end());
    src_slots_.insert(src_slots_.end(), src_slots.begin(), src_slots.end());
    dst_slots_.insert(dst_slots_.end(), dst_slots.begin(), dst_slots.end());
    route_end_.push_back(static_cast<std::uint32_t>(routes_.size()));
    slot_end_.push_back(static_cast<std::uint32_t>(src_slots_.size()));
  }
  void add(word src, std::initializer_list<int> route, std::initializer_list<slot> src_slots,
           std::initializer_list<slot> dst_slots, SendFlags flags = {}) {
    add(src, std::span<const int>(route), std::span<const slot>(src_slots),
        std::span<const slot>(dst_slots), flags);
  }

  /// Elements carried by all sends (the length of each slot pool).
  std::size_t total_elements() const noexcept { return src_slots_.size(); }
  /// Route entries (hops) of all sends.
  std::size_t total_hops() const noexcept { return routes_.size(); }

  /// The slot pools, writable in place for rewrites that keep every
  /// send's slot count (kernels::offset_program_slots).
  std::span<slot> src_slot_pool() noexcept { return src_slots_; }
  std::span<slot> dst_slot_pool() noexcept { return dst_slots_; }

  friend bool operator==(const SendList&, const SendList&) = default;

 private:
  static constexpr std::uint8_t kKeepSource = 1;
  static constexpr std::uint8_t kRerouted = 2;

  std::vector<word> src_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> route_end_;  ///< end of send i's route in routes_.
  std::vector<std::uint32_t> slot_end_;   ///< end of send i's slots in both slot pools.
  std::vector<int> routes_;
  std::vector<slot> src_slots_;
  std::vector<slot> dst_slots_;
};

/// A node-local data movement: elements at `src_slots` move to
/// `dst_slots` (atomically: all reads happen before all writes, so
/// permutations are expressed directly).  If `charged` the node pays
/// bytes * tcopy; an uncharged copy models free indirect addressing /
/// relabeling.
struct CopyOp {
  word node = 0;
  std::vector<slot> src_slots;
  std::vector<slot> dst_slots;
  bool charged = true;

  std::size_t elements() const noexcept { return src_slots.size(); }

  friend bool operator==(const CopyOp&, const CopyOp&) = default;
};

/// A staging charge: models gathering scattered blocks into a contiguous
/// send buffer (the iPSC buffered exchange of Section 8.1) without moving
/// any slots.
struct StageOp {
  word node = 0;
  std::size_t bytes = 0;

  friend bool operator==(const StageOp&, const StageOp&) = default;
};

struct Phase {
  std::string label;
  std::vector<CopyOp> pre_copies;
  std::vector<StageOp> stage;        ///< gather charges before sending.
  SendList sends;
  std::vector<StageOp> post_stage;   ///< scatter charges after receiving.
  std::vector<CopyOp> post_copies;

  bool empty() const noexcept {
    return pre_copies.empty() && stage.empty() && sends.empty() && post_stage.empty() &&
           post_copies.empty();
  }

  friend bool operator==(const Phase&, const Phase&) = default;
};

struct Program {
  int n = 0;            ///< cube dimensions the program runs on.
  word local_slots = 0; ///< per-node memory size in slots.
  /// Interconnect the routes are expressed on.  Defaults to the Boolean
  /// n-cube, so every cube planner and golden plan is unchanged; routes
  /// are port numbers of this topology (== cube dimensions on the cube).
  topo::TopologyId topology{};
  std::vector<Phase> phases;

  word nodes() const noexcept { return topology.node_count(n); }

  /// Ports per node of the target topology (route entries are in
  /// [0, ports())).
  int ports() const noexcept { return topology.port_count(n); }

  /// Total number of messages across all phases.
  std::size_t total_sends() const noexcept {
    std::size_t s = 0;
    for (const auto& ph : phases) s += ph.sends.size();
    return s;
  }

  /// Total elements transferred across all phases (hop-weighted variant in
  /// engine stats).
  std::size_t total_elements_sent() const noexcept {
    std::size_t s = 0;
    for (const auto& ph : phases) s += ph.sends.total_elements();
    return s;
  }

  /// Structural equality: two programs compare equal exactly when every
  /// phase, op, slot list and route matches — the "bit-identical plan"
  /// check the autotuner's cache golden tests rely on.
  friend bool operator==(const Program&, const Program&) = default;
};

/// Node memory image: memory[node][slot] = element address, or kEmpty.
inline constexpr word kEmptySlot = ~word{0};

using Memory = std::vector<std::vector<word>>;

/// Build an initial memory image from a distribution's node layout,
/// padding every node to `local_slots` slots.
Memory make_memory(const std::vector<std::vector<word>>& node_layout, word nodes,
                   word local_slots);

/// Apply a program's data semantics to a memory image without timing:
/// the result equals Engine::run(...).memory.  Used to compose staged
/// planners (the output of one stage seeds the next stage's planning).
Memory apply_data(const Program& program, Memory memory);

}  // namespace nct::sim
