#include "comm/rearrange.hpp"

#include <algorithm>
#include <cassert>

namespace nct::comm {

namespace {

/// Dimension whose goal location is `bit`, or -1.
int goal_dim_at(const LocationMap& goal, const LocBit& bit) { return goal.dim_at(bit); }

}  // namespace

sim::Program rearrange(int n, word local_slots, const LocationMap& current,
                       const LocationMap& goal, word active_nodes, word active_slots,
                       const RearrangeOptions& options) {
  assert(current.element_dims() == goal.element_dims());
  LocationPlanner planner(n, local_slots);
  planner.occupy_nodes(active_nodes, active_slots);

  LocationMap cur = current;

  // Classify cube dimensions.  The classes are static: a swap in the
  // realisation below never moves a dimension onto an initially unused
  // cube dimension, nor off a used one, except as its own scheduled step.
  std::vector<int> splits, exchanges, accumulations;
  for (int b = n - 1; b >= 0; --b) {
    const bool used_before = current.dim_at(LocBit::node_bit(b)) >= 0;
    const bool used_after = goal.dim_at(LocBit::node_bit(b)) >= 0;
    if (!used_before && used_after) {
      splits.push_back(b);
    } else if (used_before && used_after) {
      exchanges.push_back(b);
    } else if (used_before && !used_after) {
      accumulations.push_back(b);
    }
  }

  std::vector<int> order;
  if (options.split_timing == SplitTiming::optimal) {
    order.insert(order.end(), splits.begin(), splits.end());
    order.insert(order.end(), exchanges.begin(), exchanges.end());
    order.insert(order.end(), accumulations.begin(), accumulations.end());
  } else {
    order.insert(order.end(), accumulations.begin(), accumulations.end());
    order.insert(order.end(), exchanges.begin(), exchanges.end());
    order.insert(order.end(), splits.begin(), splits.end());
  }

  for (const int b : order) {
    const LocBit node = LocBit::node_bit(b);
    const int gd = goal_dim_at(goal, node);
    if (gd >= 0) {
      // Splitting or exchange: bring the goal dimension onto this cube
      // dimension.
      const LocBit from = cur.of_dim(gd);
      if (from == node) continue;
      planner.parallel_swaps({{from, node}}, options.policy,
                             "swap-dim-" + std::to_string(b), options.route_order,
                             /*charge_local=*/true);
      const int displaced = cur.dim_at(node);
      cur.of_dim(gd) = node;
      if (displaced >= 0) cur.of_dim(displaced) = from;
    } else {
      // Accumulation: evacuate whatever lives on this cube dimension to a
      // free slot bit (preferring its goal slot if free).
      const int cd = cur.dim_at(node);
      if (cd < 0) continue;
      LocBit target = goal.of_dim(cd);
      if (target.is_node() || cur.dim_at(target) >= 0) {
        target = LocBit{};
        bool found = false;
        const int vp = 64 - std::countl_zero(local_slots - 1);  // bits in slot index
        for (int f = vp - 1; f >= 0; --f) {
          const LocBit cand = LocBit::slot_bit(f);
          if (cur.dim_at(cand) < 0) {
            target = cand;
            found = true;
            break;
          }
        }
        assert(found && "no free slot bit for accumulation");
        (void)found;
      }
      planner.parallel_swaps({{node, target}}, options.policy,
                             "gather-dim-" + std::to_string(b), options.route_order,
                             /*charge_local=*/true);
      cur.of_dim(cd) = target;
    }
  }

  // All cube dimensions now carry the right element dimensions; fix the
  // slot-level placement with one local permutation.
  append_final_local_permutation(planner, cur, goal, options.charge_final_local);

  return std::move(planner).take();
}

void append_final_local_permutation(LocationPlanner& planner, const LocationMap& current,
                                    const LocationMap& goal, bool charged) {
  bool identity = true;
  for (int d = 0; d < current.element_dims() && identity; ++d) {
    identity = current.of_dim(d) == goal.of_dim(d);
  }
  if (identity) return;
  for (int d = 0; d < current.element_dims(); ++d) {
    assert(current.of_dim(d).is_node() == goal.of_dim(d).is_node());
    assert(!current.of_dim(d).is_node() || current.of_dim(d) == goal.of_dim(d));
  }
  planner.local_permutation(
      [&current, &goal](word x, word s) -> word {
        // Reconstruct the element bits from the current map, then place
        // them per the goal map.  Node bits agree between the two maps
        // at this point, so only the slot changes.
        word t = 0;
        for (int d = 0; d < current.element_dims(); ++d) {
          const LocBit& from = current.of_dim(d);
          const int v =
              from.is_node() ? cube::get_bit(x, from.index) : cube::get_bit(s, from.index);
          const LocBit& to = goal.of_dim(d);
          if (!to.is_node()) t = cube::set_bit(t, to.index, v);
        }
        return t;
      },
      charged, "final-local-permutation");
}

sim::Program convert_storage(const cube::PartitionSpec& before,
                             const cube::PartitionSpec& after, int machine_n,
                             const RearrangeOptions& options) {
  assert(before.shape() == after.shape());
  const word local_slots =
      std::max(before.local_elements(), after.local_elements());
  return rearrange(machine_n, local_slots, LocationMap::from_spec(before),
                   LocationMap::from_spec(after), before.processors(),
                   before.local_elements(), options);
}

sim::Program permute_dimensions(const cube::PartitionSpec& before,
                                const cube::PartitionSpec& after,
                                const std::vector<int>& delta, int machine_n,
                                const RearrangeOptions& options) {
  const int m = before.shape().m();
  assert(after.shape().m() == m);
  assert(static_cast<int>(delta.size()) == m);
  // Element dimension delta[i] of the original address becomes dimension
  // i of the permuted address, so its goal location is where `after`
  // places dimension i.
  const LocationMap after_map = LocationMap::from_spec(after);
  LocationMap goal = after_map;
  for (int i = 0; i < m; ++i) {
    goal.of_dim(delta[static_cast<std::size_t>(i)]) = after_map.of_dim(i);
  }
  const word local_slots = std::max(before.local_elements(), after.local_elements());
  return rearrange(machine_n, local_slots, LocationMap::from_spec(before), goal,
                   before.processors(), before.local_elements(), options);
}

sim::Memory permuted_memory(const cube::PartitionSpec& after, const std::vector<int>& delta,
                            int machine_n, word local_slots) {
  const word nnodes = word{1} << machine_n;
  sim::Memory mem(static_cast<std::size_t>(nnodes),
                  std::vector<word>(static_cast<std::size_t>(local_slots), sim::kEmptySlot));
  for (word wp = 0; wp < after.shape().elements(); ++wp) {
    // wp is the permuted address; recover the original payload address.
    word original = 0;
    for (std::size_t i = 0; i < delta.size(); ++i) {
      original = cube::set_bit(original, delta[i], cube::get_bit(wp, static_cast<int>(i)));
    }
    mem[static_cast<std::size_t>(after.processor_of(wp))]
       [static_cast<std::size_t>(after.local_of(wp))] = original;
  }
  return mem;
}

sim::Memory spec_memory(const cube::PartitionSpec& spec, int machine_n, word local_slots) {
  const word nnodes = word{1} << machine_n;
  assert(spec.processors() <= nnodes);
  assert(spec.local_elements() <= local_slots);
  sim::Memory mem(static_cast<std::size_t>(nnodes),
                  std::vector<word>(static_cast<std::size_t>(local_slots), sim::kEmptySlot));
  for (word w = 0; w < spec.shape().elements(); ++w) {
    mem[static_cast<std::size_t>(spec.processor_of(w))]
       [static_cast<std::size_t>(spec.local_of(w))] = w;
  }
  return mem;
}

std::vector<word> spec_image(const cube::PartitionSpec& spec, int machine_n, word local_slots) {
  const word nnodes = word{1} << machine_n;
  assert(spec.processors() <= nnodes);
  assert(spec.local_elements() <= local_slots);
  std::vector<word> image(static_cast<std::size_t>(nnodes * local_slots), sim::kEmptySlot);
  for (word w = 0; w < spec.shape().elements(); ++w)
    image[static_cast<std::size_t>(spec.processor_of(w) * local_slots + spec.local_of(w))] = w;
  return image;
}

sim::Memory transposed_memory(const cube::MatrixShape& before_shape,
                              const cube::PartitionSpec& after, int machine_n,
                              word local_slots) {
  assert(after.shape() == before_shape.transposed());
  (void)before_shape;
  const word nnodes = word{1} << machine_n;
  sim::Memory mem(static_cast<std::size_t>(nnodes),
                  std::vector<word>(static_cast<std::size_t>(local_slots), sim::kEmptySlot));
  for (word wt = 0; wt < after.shape().elements(); ++wt) {
    // wt is the address in the transposed matrix; the payload carries the
    // original address.
    const word original = cube::transpose_address(after.shape(), wt);
    mem[static_cast<std::size_t>(after.processor_of(wt))]
       [static_cast<std::size_t>(after.local_of(wt))] = original;
  }
  return mem;
}

}  // namespace nct::comm
