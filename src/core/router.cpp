#include "core/router.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <tuple>

namespace nct::core {

namespace {

/// The router proper, on a flat working image: node x's slots are
/// [x * capacity, (x + 1) * capacity) of `model`.
sim::Program route_flat(int n, std::vector<word> model, word capacity,
                        const std::function<Placement(word)>& dest,
                        const std::vector<std::vector<int>>& schedule,
                        const RouterOptions& options, const std::string& label_prefix) {
  const word nnodes = word{1} << n;
  const auto node_slots = [&](word x) {
    return std::span<word>(model).subspan(static_cast<std::size_t>(x * capacity),
                                          static_cast<std::size_t>(capacity));
  };

  sim::Program prog;
  prog.n = n;
  prog.local_slots = capacity;

  // dest() is a pure function of the element address but gets consulted
  // several times per element per phase; resolve it once per element up
  // front.  Element addresses are dense (matrix addresses), so a flat
  // table indexed by address suffices.
  word max_element = 0;
  std::size_t n_elements = 0;
  for (const word e : model) {
    if (e == sim::kEmptySlot) continue;
    ++n_elements;
    max_element = std::max(max_element, e);
  }
  std::vector<Placement> placement(n_elements ? static_cast<std::size_t>(max_element) + 1
                                              : 0);
  for (const word e : model) {
    if (e != sim::kEmptySlot) placement[static_cast<std::size_t>(e)] = dest(e);
  }

  // Plan all departures of a phase first (mirrors the engine's snapshot:
  // freed slots are reusable for arrivals within the phase).
  struct Move {
    word from_node;
    sim::slot from_slot;
    word to_node;
    word element;
  };
  std::vector<Move> moves;
  moves.reserve(n_elements);
  std::vector<word> next_free(static_cast<std::size_t>(nnodes));
  // One group's route and slot pairs, reused across the groups.
  std::vector<int> route;
  std::vector<sim::slot> src, dst;
  comm::SendScratch scratch;

  for (std::size_t pi = 0; pi < schedule.size(); ++pi) {
    const auto& dims = schedule[pi];
    sim::Phase phase;
    phase.label = label_prefix + "-phase-" + std::to_string(pi);

    moves.clear();
    for (word x = 0; x < nnodes; ++x) {
      const auto mem = node_slots(x);
      for (word s = 0; s < capacity; ++s) {
        const word e = mem[static_cast<std::size_t>(s)];
        if (e == sim::kEmptySlot) continue;
        const word y = placement[static_cast<std::size_t>(e)].node;
        word cur = x;
        for (const int d : dims) {
          if (cube::get_bit(cur, d) != cube::get_bit(y, d)) cur = cube::flip_bit(cur, d);
        }
        if (cur != x) moves.push_back({x, static_cast<sim::slot>(s), cur, e});
      }
    }
    if (moves.empty()) continue;

    for (const Move& m : moves) {
      node_slots(m.from_node)[static_cast<std::size_t>(m.from_slot)] = sim::kEmptySlot;
    }

    // Group per (src, dst) with slots ascending for run detection; sends
    // are emitted in ascending (src, dst) order.
    std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
      return std::tie(a.from_node, a.to_node, a.from_slot) <
             std::tie(b.from_node, b.to_node, b.from_slot);
    });
    const auto group_end = [&](std::size_t gi) {
      std::size_t ge = gi + 1;
      while (ge < moves.size() && moves[ge].from_node == moves[gi].from_node &&
             moves[ge].to_node == moves[gi].to_node) {
        ++ge;
      }
      return ge;
    };
    const auto group_src = [&](std::size_t gi, std::size_t ge) {
      src.clear();
      for (std::size_t mi = gi; mi < ge; ++mi) src.push_back(moves[mi].from_slot);
    };

    // A group's route: the phase's dimensions on which x and y differ.
    const auto group_route = [&](word x, word y) {
      route.clear();
      for (const int d : dims) {
        if (cube::get_bit(x, d) != cube::get_bit(y, d)) route.push_back(d);
      }
      assert(!route.empty());
    };

    // Size the phase's send arrays exactly before filling them.
    std::size_t n_sends = 0, n_route = 0;
    for (std::size_t gi = 0; gi < moves.size();) {
      const std::size_t ge = group_end(gi);
      group_route(moves[gi].from_node, moves[gi].to_node);
      group_src(gi, ge);
      const std::size_t k = comm::count_sends(src, options.policy, scratch);
      n_sends += k;
      n_route += k * route.size();
      gi = ge;
    }
    phase.sends.reserve(n_sends, n_route, moves.size());

    // Assign arrival slots: the destination slot if the element has
    // reached its final node and the slot is free, else the lowest free
    // slot.
    std::fill(next_free.begin(), next_free.end(), 0);
    for (std::size_t gi = 0; gi < moves.size();) {
      const std::size_t ge = group_end(gi);
      const word x = moves[gi].from_node;
      const word y = moves[gi].to_node;
      group_route(x, y);
      group_src(gi, ge);
      dst.clear();
      const auto ymem = node_slots(y);
      for (std::size_t mi = gi; mi < ge; ++mi) {
        const Placement p = placement[static_cast<std::size_t>(moves[mi].element)];
        word t;
        if (p.node == y && p.slot < capacity &&
            ymem[static_cast<std::size_t>(p.slot)] == sim::kEmptySlot) {
          t = p.slot;
        } else {
          word& nf = next_free[static_cast<std::size_t>(y)];
          while (nf < capacity && ymem[static_cast<std::size_t>(nf)] != sim::kEmptySlot) ++nf;
          if (nf >= capacity)
            throw std::runtime_error("route_elements: slot capacity exhausted; "
                                     "increase slot_headroom_factor");
          t = nf;
        }
        ymem[static_cast<std::size_t>(t)] = moves[mi].element;
        dst.push_back(t);
      }
      comm::emit_sends(phase, x, y, route, src, dst, options.policy, options.element_bytes,
                       false, scratch);
      gi = ge;
    }
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
        const word e = mem[static_cast<std::size_t>(s)];
        if (e == sim::kEmptySlot) continue;
        const Placement p = placement[static_cast<std::size_t>(e)];
        assert(p.node == x && "element did not reach its node; bad schedule");
        if (p.slot != s) {
          src.push_back(s);
          dst.push_back(p.slot);
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
  const word nnodes = word{1} << n;
  if (image.size() != nnodes * slots) throw std::invalid_argument("initial image size mismatch");
  // Slots are 32-bit (sim::slot): a capacity past 2^32 would truncate
  // every slot index above it, so it is refused before anything is
  // allocated (the product is checked by division, so it cannot wrap).
  constexpr word kMaxCapacity = word{1} << 32;
  if (options.slot_headroom_factor != 0 && slots > kMaxCapacity / options.slot_headroom_factor)
    throw std::invalid_argument("route_elements: slot capacity exceeds 2^32 slots");
  const word capacity = slots * options.slot_headroom_factor;
  if (capacity == slots)
    return route_flat(n, std::move(image), capacity, dest, schedule, options, label_prefix);
  std::vector<word> model(static_cast<std::size_t>(nnodes * capacity), sim::kEmptySlot);
  for (word x = 0; x < nnodes; ++x) {
    std::copy_n(image.begin() + static_cast<std::ptrdiff_t>(x * slots), slots,
                model.begin() + static_cast<std::ptrdiff_t>(x * capacity));
  }
  return route_flat(n, std::move(model), capacity, dest, schedule, options, label_prefix);
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
