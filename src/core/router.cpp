#include "core/router.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>

#include "cube/bits.hpp"

namespace nct::core {

namespace {

/// An empty slot of the working image.  No element's destination is
/// this node: route_elements refuses destinations outside the cube.
constexpr Placement kEmpty{~word{0}, 0};

/// One element leaving node `from` in a phase: its slot there and its
/// final placement, carried along so that neither the arrival nor the
/// final copies look it up again.  24 bytes: route_elements refuses
/// destination slots past the 32-bit capacity.
struct Move {
  word from;
  word target_node;
  sim::slot target_slot;
  sim::slot from_slot;
};

/// The router proper, on a flat working image of final placements:
/// node x's slots are [x * capacity, (x + 1) * capacity) of `image`.
/// `masks[i]` is the set of dimensions of `schedule[i]`; every
/// element's node and destination differ only in their union.
sim::Program route_flat(int n, std::vector<Placement> image, word capacity,
                        std::size_t n_elements, const std::vector<word>& masks,
                        const std::vector<std::vector<int>>& schedule,
                        const RouterOptions& options, const std::string& label_prefix) {
  const word nnodes = word{1} << n;
  const auto node_slots = [&](word x) {
    return std::span<Placement>(image).subspan(static_cast<std::size_t>(x * capacity),
                                               static_cast<std::size_t>(capacity));
  };
  const bool buffered = options.policy.mode == comm::BufferMode::buffered;

  sim::Program prog;
  prog.n = n;
  prog.local_slots = capacity;

  std::vector<Move> moves;
  moves.reserve(n_elements);
  std::vector<word> next_free(static_cast<std::size_t>(nnodes));
  // One group's route and slot lists, reused across the groups.
  std::vector<int> route;
  std::vector<sim::slot> src, dst;
  comm::SendScratch scratch;

  for (std::size_t pi = 0; pi < schedule.size(); ++pi) {
    const auto& dims = schedule[pi];
    const word mask = masks[pi];
    sim::Phase phase;
    phase.label = label_prefix + "-phase-" + std::to_string(pi);

    // An element at x bound for y crosses the phase's dimensions on
    // which x and y differ, to x ^ ((x ^ y) & mask).
    const auto next = [mask](const Move& m) {
      return m.from ^ ((m.from ^ m.target_node) & mask);
    };
    // Calls fn(x, y, group) for each (source x, next node y) group of
    // `run`, a slice of the phase's moves, in order.
    const auto for_each_group = [&](std::span<const Move> run, auto&& fn) {
      for (std::size_t gi = 0; gi < run.size();) {
        const word y = next(run[gi]);
        std::size_t ge = gi + 1;
        while (ge < run.size() && run[ge].from == run[gi].from && next(run[ge]) == y) ++ge;
        fn(run[gi].from, y, run.subspan(gi, ge - gi));
        gi = ge;
      }
    };
    const auto fill_src = [&](std::span<const Move> group) {
      src.clear();
      for (const Move& m : group) src.push_back(m.from_slot);
    };

    // Collect and count, node by node.  A slot is freed as it is read,
    // which matches the engine's snapshot of the phase: only node x's
    // own moves read x's slots, and arrivals are placed after every
    // departure is collected.  Node x's moves come out in slot order;
    // ordering them by next node (slots ascending within one) orders the
    // phase by (source, next node, slot).  They are in order already
    // when all of x's elements go one way, as with one element per node.
    // Each send of a group carries popcount(x ^ y) route entries, and a
    // buffered group is one send, so the send arrays are sized exactly
    // before they are filled.
    moves.clear();
    std::size_t n_sends = 0, n_route = 0;
    for (word x = 0; x < nnodes; ++x) {
      const std::size_t begin = moves.size();
      const auto mem = node_slots(x);
      for (word s = 0; s < capacity; ++s) {
        Placement& p = mem[static_cast<std::size_t>(s)];
        if (p.node == kEmpty.node || ((x ^ p.node) & mask) == 0) continue;
        moves.push_back(
            {x, p.node, static_cast<sim::slot>(p.slot), static_cast<sim::slot>(s)});
        p = kEmpty;
      }
      const auto first = moves.begin() + static_cast<std::ptrdiff_t>(begin);
      const auto by_next = [&](const Move& a, const Move& b) { return next(a) < next(b); };
      if (!std::is_sorted(first, moves.end(), by_next)) {
        std::sort(first, moves.end(), [&](const Move& a, const Move& b) {
          return next(a) != next(b) ? next(a) < next(b) : a.from_slot < b.from_slot;
        });
      }
      for_each_group(std::span<const Move>(moves).subspan(begin),
                     [&](word, word y, std::span<const Move> group) {
                       std::size_t k = 1;
                       if (!buffered) {
                         fill_src(group);
                         k = comm::count_sends(src, options.policy, scratch);
                       }
                       n_sends += k;
                       n_route += k * static_cast<std::size_t>(cube::popcount(x ^ y));
                     });
    }
    if (moves.empty()) continue;
    phase.sends.reserve(n_sends, n_route, moves.size());

    // Assign arrival slots: the destination slot if the element has
    // reached its final node and the slot is free, else the lowest free
    // slot.
    std::fill(next_free.begin(), next_free.end(), 0);
    route.resize(dims.size());
    for_each_group(moves, [&](word x, word y, std::span<const Move> group) {
      // The route: the phase's dimensions on which x and y differ, in
      // schedule order.
      const word diff = x ^ y;
      std::size_t hops = 0;
      for (const int d : dims) {
        route[hops] = d;
        hops += static_cast<std::size_t>((diff >> d) & 1);
      }
      fill_src(group);
      dst.clear();
      const auto ymem = node_slots(y);
      for (const Move& m : group) {
        word t = m.target_slot;
        if (m.target_node != y || ymem[static_cast<std::size_t>(t)].node != kEmpty.node) {
          word& nf = next_free[static_cast<std::size_t>(y)];
          while (nf < capacity && ymem[static_cast<std::size_t>(nf)].node != kEmpty.node) ++nf;
          if (nf >= capacity)
            throw std::runtime_error("route_elements: slot capacity exhausted; "
                                     "increase slot_headroom_factor");
          t = nf;
        }
        ymem[static_cast<std::size_t>(t)] = Placement{m.target_node, m.target_slot};
        dst.push_back(static_cast<sim::slot>(t));
      }
      comm::emit_sends(phase, x, y, std::span<const int>(route.data(), hops), src, dst,
                       options.policy, options.element_bytes, false, scratch);
    });
    prog.phases.push_back(std::move(phase));
  }

  // Final local permutation to destination slots.
  {
    sim::Phase fin;
    fin.label = label_prefix + "-finalize";
    for (word x = 0; x < nnodes; ++x) {
      const auto mem = node_slots(x);
      src.clear();
      dst.clear();
      for (word s = 0; s < capacity; ++s) {
        const Placement p = mem[static_cast<std::size_t>(s)];
        if (p.node == kEmpty.node) continue;
        assert(p.node == x && "route_elements validates that every element arrives");
        if (p.slot != s) {
          src.push_back(static_cast<sim::slot>(s));
          dst.push_back(static_cast<sim::slot>(p.slot));
        }
      }
      if (!src.empty())
        fin.pre_copies.push_back(sim::CopyOp{x, src, dst, options.charge_final_local});
    }
    if (!fin.empty()) prog.phases.push_back(std::move(fin));
  }
  return prog;
}

}  // namespace

sim::Program route_elements(int n, std::vector<word> image, word slots,
                            const std::function<Placement(word)>& dest,
                            const std::vector<std::vector<int>>& schedule,
                            const RouterOptions& options, const std::string& label_prefix) {
  if (n < 0 || n > cube::kMaxBits) throw std::invalid_argument("route_elements: bad n");
  const word nnodes = word{1} << n;
  if (image.size() != nnodes * slots) throw std::invalid_argument("initial image size mismatch");
  // Slots are 32-bit (sim::slot): a capacity past 2^32 would truncate
  // every slot index above it, so it is refused before anything is
  // allocated (the product is checked by division, so it cannot wrap).
  constexpr word kMaxCapacity = word{1} << 32;
  if (options.slot_headroom_factor == 0)
    throw std::invalid_argument("route_elements: slot_headroom_factor must be at least 1");
  if (slots > kMaxCapacity / options.slot_headroom_factor)
    throw std::invalid_argument("route_elements: slot capacity exceeds 2^32 slots");
  const word capacity = slots * options.slot_headroom_factor;

  // Each phase's dimension set, and their union.
  std::vector<word> masks;
  masks.reserve(schedule.size());
  word crossed = 0;
  for (const auto& dims : schedule) {
    word mask = 0;
    for (const int d : dims) {
      if (d < 0 || d >= n)
        throw std::invalid_argument("route_elements: schedule dimension outside [0, n)");
      if ((mask >> d) & 1)
        throw std::invalid_argument("route_elements: schedule repeats a dimension in a phase");
      mask |= word{1} << d;
    }
    masks.push_back(mask);
    crossed |= mask;
  }

  // The working image holds each element's final placement; dest() is
  // called once per element.  An element whose node and destination
  // differ in a dimension no phase crosses could never arrive (this
  // also refuses destinations outside the cube), and a destination slot
  // past the capacity could never be filled.
  std::vector<Placement> working(static_cast<std::size_t>(nnodes * capacity), kEmpty);
  std::size_t n_elements = 0;
  for (word x = 0; x < nnodes; ++x) {
    for (word s = 0; s < slots; ++s) {
      const word e = image[static_cast<std::size_t>(x * slots + s)];
      if (e == sim::kEmptySlot) continue;
      const Placement p = dest(e);
      if (((x ^ p.node) & ~crossed) != 0)
        throw std::invalid_argument(
            "route_elements: an element cannot reach its destination node through the "
            "schedule");
      if (p.slot >= capacity)
        throw std::invalid_argument("route_elements: destination slot past the slot capacity");
      working[static_cast<std::size_t>(x * capacity + s)] = p;
      ++n_elements;
    }
  }
  image = std::vector<word>();  // free the ids before planning
  return route_flat(n, std::move(working), capacity, n_elements, masks, schedule, options,
                    label_prefix);
}

namespace {

/// One phase crossing every dimension, descending.
std::vector<std::vector<int>> direct_schedule(int n) {
  std::vector<int> all;
  for (int d = n - 1; d >= 0; --d) all.push_back(d);
  return {all};
}

}  // namespace

sim::Program route_direct(int n, std::vector<word> image, word slots,
                          const std::function<Placement(word)>& dest,
                          const RouterOptions& options) {
  return route_elements(n, std::move(image), slots, dest, direct_schedule(n), options,
                        "direct");
}

std::vector<std::vector<int>> per_dimension_schedule(int n) {
  std::vector<std::vector<int>> s;
  for (int d = n - 1; d >= 0; --d) s.push_back({d});
  return s;
}

}  // namespace nct::core
