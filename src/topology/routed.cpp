#include "topology/routed.hpp"

#include <numeric>
#include <span>
#include <stdexcept>

namespace nct::topo {

sim::Program plan_routed_permutation(const Topology& t, const std::vector<word>& dest,
                                     word elements_per_node, const RoutedOptions& opt) {
  if (dest.size() != static_cast<std::size_t>(t.nodes()))
    throw std::invalid_argument("routed planner: dest size != node count");
  std::vector<bool> hit(dest.size(), false);
  for (const word d : dest) {
    if (d >= t.nodes() || hit[static_cast<std::size_t>(d)])
      throw std::invalid_argument("routed planner: dest is not a permutation");
    hit[static_cast<std::size_t>(d)] = true;
  }

  sim::Program program;
  program.n = t.cube_dims();
  program.topology = t.id();
  program.local_slots = elements_per_node;
  sim::Phase phase;
  phase.label = opt.label;

  const word chunk = opt.packet_elements > 0 ? opt.packet_elements : elements_per_node;
  std::vector<sim::slot> slots;
  for (word src = 0; src < t.nodes(); ++src) {
    const word dst = dest[static_cast<std::size_t>(src)];
    if (dst == src || elements_per_node == 0) continue;
    const std::vector<int> healthy = t.route(src, dst);
    std::vector<int> route = opt.router ? opt.router(src, dst) : healthy;
    const bool rerouted = route != healthy;
    for (word lo = 0; lo < elements_per_node; lo += chunk) {
      const word hi = std::min(elements_per_node, lo + chunk);
      slots.resize(static_cast<std::size_t>(hi - lo));
      std::iota(slots.begin(), slots.end(), static_cast<sim::slot>(lo));
      phase.sends.add(src, route, slots, slots, {false, rerouted});
    }
  }
  if (!phase.empty()) program.phases.push_back(std::move(phase));
  return program;
}

std::vector<word> transpose_permutation(const Topology& t, word rows, word cols) {
  if (rows * cols != t.nodes())
    throw std::invalid_argument("transpose permutation: rows*cols != node count");
  std::vector<word> dest(static_cast<std::size_t>(t.nodes()));
  for (word r = 0; r < rows; ++r) {
    for (word c = 0; c < cols; ++c) {
      dest[static_cast<std::size_t>(r * cols + c)] = c * rows + r;
    }
  }
  return dest;
}

sim::Program plan_routed_transpose(const Topology& t, word rows, word cols,
                                   word elements_per_node, const RoutedOptions& opt) {
  return plan_routed_permutation(t, transpose_permutation(t, rows, cols), elements_per_node,
                                 opt);
}

sim::Program plan_routed_moves(const Topology& t, const std::vector<SlotMove>& moves,
                               word local_slots, const RoutedOptions& opt) {
  sim::Program program;
  program.n = t.cube_dims();
  program.topology = t.id();
  program.local_slots = local_slots;
  sim::Phase phase;
  phase.label = opt.label;

  for (const SlotMove& mv : moves) {
    if (mv.src_slots.size() != mv.dst_slots.size())
      throw std::invalid_argument("routed moves: src/dst slot count mismatch");
    if (mv.src >= t.nodes() || mv.dst >= t.nodes())
      throw std::invalid_argument("routed moves: node out of range");
    if (mv.src_slots.empty()) continue;
    if (mv.src == mv.dst) {
      if (mv.src_slots == mv.dst_slots) continue;  // already in place
      sim::CopyOp op;
      op.node = mv.src;
      op.src_slots = mv.src_slots;
      op.dst_slots = mv.dst_slots;
      phase.pre_copies.push_back(std::move(op));
      continue;
    }
    const std::vector<int> healthy = t.route(mv.src, mv.dst);
    std::vector<int> route = opt.router ? opt.router(mv.src, mv.dst) : healthy;
    const bool rerouted = route != healthy;
    const word total = static_cast<word>(mv.src_slots.size());
    const word chunk = opt.packet_elements > 0 ? opt.packet_elements : total;
    for (word lo = 0; lo < total; lo += chunk) {
      const word hi = std::min(total, lo + chunk);
      const auto part = [lo, hi](const std::vector<sim::slot>& slots) {
        return std::span(slots).subspan(static_cast<std::size_t>(lo),
                                        static_cast<std::size_t>(hi - lo));
      };
      phase.sends.add(mv.src, route, part(mv.src_slots), part(mv.dst_slots),
                      {mv.keep_source, rerouted});
    }
  }
  if (!phase.empty()) program.phases.push_back(std::move(phase));
  return program;
}

std::vector<std::vector<word>> routed_layout(const Topology& t, word elements_per_node) {
  std::vector<std::vector<word>> layout(static_cast<std::size_t>(t.nodes()));
  for (word x = 0; x < t.nodes(); ++x) {
    auto& slots = layout[static_cast<std::size_t>(x)];
    slots.resize(static_cast<std::size_t>(elements_per_node));
    std::iota(slots.begin(), slots.end(), x * elements_per_node);
  }
  return layout;
}

}  // namespace nct::topo
