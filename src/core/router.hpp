// Generic dimension-scheduled store-and-forward routing of individually
// addressed elements.
//
// Several of the paper's algorithms reduce to "move every element to its
// destination node, crossing cube dimensions in a fixed schedule":
//  * the stepwise 2D transpose implemented on the iPSC (Section 8.2.1)
//    crosses the dimension pairs (g(i), f(i)) one iteration at a time;
//  * the combined transpose + Gray/binary conversion (Section 6.3)
//    crosses bits (j + n/2, j) in iteration j, n routing steps total;
//  * the naive mixed-encoding algorithm prefixes per-dimension
//    Gray <-> binary conversion sweeps (n/2 - 1 steps each);
//  * "routing logic" direct sends (Figures 14b, 16-18) use a single
//    phase containing every dimension.
//
// The router plans phases: in the phase for dimension set D (mask M), an
// element at node x destined for node y crosses the dimensions of D on
// which x and y differ, in the listed order, and reaches
// x ^ ((x ^ y) & M).  Elements travelling from one node to the same next
// node form one message (subject to the buffer policy).  Arrivals land
// in free slots; a final local permutation places every element at its
// destination slot.  Each phase is one linear pass: moves are collected
// node by node in slot order, so only one node's moves are ever
// reordered, by next node.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "comm/planner.hpp"
#include "sim/program.hpp"

namespace nct::core {

using comm::BufferPolicy;
using cube::word;

/// Destination of an element: node and local slot.
struct Placement {
  word node = 0;
  word slot = 0;
};

struct RouterOptions {
  BufferPolicy policy = BufferPolicy::buffered();
  /// Charge the final slot-placement permutation as real copies.
  bool charge_final_local = true;
  /// Extra slot headroom factor (x local_slots) for transient imbalance.
  word slot_headroom_factor = 2;
  /// Element size used to size staging charges.
  int element_bytes = 4;
};

/// Plan the routing of every element of `image` (element ids in node
/// memories; kEmptySlot = hole) to dest(id), through `schedule` (one
/// phase per entry; each entry lists the dimensions crossed, in order).
/// The image is flat: node x's `slots` slots are
/// [x * slots, (x + 1) * slots).  dest() is called once per element.
/// The returned program's local_slots may exceed `slots`; pad memories
/// accordingly (sim::make_memory).
///
/// Throws std::invalid_argument, before planning, when n is outside
/// [0, 63], the image size is not 2^n * slots, the slot headroom factor
/// is 0 or takes the capacity past 2^32 slots, a schedule dimension is
/// outside [0, n) or repeated within a phase, an element's node and
/// destination node differ in a dimension no phase crosses (which
/// includes a destination outside the cube), or a destination slot is
/// past the capacity (slots x slot_headroom_factor).  Throws std::runtime_error
/// when a node runs out of slot capacity mid-plan.
sim::Program route_elements(int n, std::vector<word> image, word slots,
                            const std::function<Placement(word)>& dest,
                            const std::vector<std::vector<int>>& schedule,
                            const RouterOptions& options = {},
                            const std::string& label_prefix = "route");

/// Single-phase direct routing, dimensions descending (the machine's
/// routing logic; each message goes straight to its destination).
sim::Program route_direct(int n, std::vector<word> image, word slots,
                          const std::function<Placement(word)>& dest,
                          const RouterOptions& options = {});

/// Schedule helper: one phase per dimension, descending (e-cube order).
std::vector<std::vector<int>> per_dimension_schedule(int n);

}  // namespace nct::core
