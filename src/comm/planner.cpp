#include "comm/planner.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "cube/bits.hpp"

namespace nct::comm {

namespace {

/// Contiguous runs of an ascending slot list, as (first_index, count).
void find_runs(std::span<const sim::slot> slots,
               std::vector<std::pair<std::size_t, std::size_t>>& runs) {
  runs.clear();
  for (std::size_t i = 0; i < slots.size();) {
    std::size_t j = i + 1;
    while (j < slots.size() && slots[j] == slots[j - 1] + 1) ++j;
    runs.emplace_back(i, j - i);
    i = j;
  }
}

}  // namespace

std::size_t count_sends(std::span<const sim::slot> src, const BufferPolicy& policy,
                        SendScratch& scratch) {
  if (policy.mode == BufferMode::buffered) return 1;
  find_runs(src, scratch.runs);
  if (policy.mode == BufferMode::unbuffered) return scratch.runs.size();
  std::size_t long_runs = 0;
  for (const auto& run : scratch.runs) long_runs += run.second >= policy.b_copy_elements;
  return long_runs + (long_runs < scratch.runs.size() ? 1 : 0);
}

void emit_sends(sim::Phase& phase, word x, word y, std::span<const int> route,
                std::span<const sim::slot> src, std::span<const sim::slot> dst,
                const BufferPolicy& policy, int element_bytes, bool rerouted,
                SendScratch& scratch) {
  const sim::SendFlags flags{false, rerouted};
  const auto emit = [&](std::size_t first, std::size_t count) {
    phase.sends.add(x, route, src.subspan(first, count), dst.subspan(first, count), flags);
  };
  // Gather at the sender, scatter at the receiver.
  const auto stage = [&](std::size_t elements) {
    const std::size_t bytes = elements * static_cast<std::size_t>(element_bytes);
    phase.stage.push_back(sim::StageOp{x, bytes});
    phase.post_stage.push_back(sim::StageOp{y, bytes});
  };

  auto& runs = scratch.runs;
  switch (policy.mode) {
    case BufferMode::unbuffered:
      find_runs(src, runs);
      for (const auto& [first, count] : runs) emit(first, count);
      break;
    case BufferMode::buffered:
      // Strictly ascending slots form one run iff they span exactly
      // src.size() slots.
      emit(0, src.size());
      if (src.size() > 1 &&
          static_cast<std::size_t>(src.back() - src.front()) + 1 != src.size())
        stage(src.size());
      break;
    case BufferMode::optimal: {
      find_runs(src, runs);
      // Long runs go unbuffered; short runs are gathered into one
      // buffered message.
      auto& small_src = scratch.small_src;
      auto& small_dst = scratch.small_dst;
      small_src.clear();
      small_dst.clear();
      for (const auto& [first, count] : runs) {
        if (count >= policy.b_copy_elements) {
          emit(first, count);
        } else {
          small_src.insert(small_src.end(), src.begin() + static_cast<std::ptrdiff_t>(first),
                           src.begin() + static_cast<std::ptrdiff_t>(first + count));
          small_dst.insert(small_dst.end(), dst.begin() + static_cast<std::ptrdiff_t>(first),
                           dst.begin() + static_cast<std::ptrdiff_t>(first + count));
        }
      }
      if (!small_src.empty()) {
        phase.sends.add(x, route, small_src, small_dst, flags);
        if (small_src.size() < src.size() || runs.size() > 1) stage(small_src.size());
      }
      break;
    }
  }
}

LocationPlanner::LocationPlanner(int n, word local_slots, int element_bytes)
    : n_(n), local_slots_(local_slots), element_bytes_(element_bytes) {
  occupied_.assign(static_cast<std::size_t>(word{1} << n),
                   std::vector<bool>(static_cast<std::size_t>(local_slots), false));
  program_.n = n;
  program_.local_slots = local_slots;
}

void LocationPlanner::occupy_nodes(word nodes, word slots_per_node) {
  assert(nodes <= (word{1} << n_));
  if (slots_per_node == 0) slots_per_node = local_slots_;
  assert(slots_per_node <= local_slots_);
  for (word x = 0; x < nodes; ++x) {
    auto& occ = occupied_[static_cast<std::size_t>(x)];
    std::fill(occ.begin(), occ.begin() + static_cast<std::ptrdiff_t>(slots_per_node), true);
  }
}

void LocationPlanner::occupy_from(const sim::Memory& mem) {
  assert(mem.size() == occupied_.size());
  for (std::size_t x = 0; x < mem.size(); ++x) {
    assert(mem[x].size() == static_cast<std::size_t>(local_slots_));
    for (std::size_t s = 0; s < mem[x].size(); ++s) {
      occupied_[x][s] = mem[x][s] != sim::kEmptySlot;
    }
  }
}

void LocationPlanner::parallel_swaps(const std::vector<std::pair<LocBit, LocBit>>& swaps,
                                     const BufferPolicy& policy, const std::string& label,
                                     RouteOrder order, bool charge_local) {
  // Validate disjointness.
  for (std::size_t i = 0; i < swaps.size(); ++i) {
    for (std::size_t j = i + 1; j < swaps.size(); ++j) {
      assert(!(swaps[i].first == swaps[j].first) && !(swaps[i].first == swaps[j].second) &&
             !(swaps[i].second == swaps[j].first) && !(swaps[i].second == swaps[j].second));
    }
  }

  const auto read_bit = [](word x, word s, const LocBit& b) -> int {
    return b.is_node() ? cube::get_bit(x, b.index) : cube::get_bit(s, b.index);
  };
  const auto write_bit = [](word& x, word& s, const LocBit& b, int v) {
    if (b.is_node()) {
      x = cube::set_bit(x, b.index, v);
    } else {
      s = cube::set_bit(s, b.index, v);
    }
  };

  sim::Phase phase;
  phase.label = label;
  SendScratch scratch;

  const word nnodes = word{1} << n_;
  for (word x = 0; x < nnodes; ++x) {
    const auto& occ = occupied_[static_cast<std::size_t>(x)];
    // destination node -> (src slots, dst slots), slots ascending.
    std::map<word, std::pair<std::vector<sim::slot>, std::vector<sim::slot>>> groups;
    std::vector<sim::slot> local_src, local_dst;
    for (word s = 0; s < local_slots_; ++s) {
      if (!occ[static_cast<std::size_t>(s)]) continue;
      word y = x, t = s;
      for (const auto& [a, b] : swaps) {
        const int va = read_bit(x, s, a);
        const int vb = read_bit(x, s, b);
        write_bit(y, t, a, vb);
        write_bit(y, t, b, va);
      }
      if (y == x && t == s) continue;
      if (y == x) {
        local_src.push_back(s);
        local_dst.push_back(t);
      } else {
        auto& g = groups[y];
        g.first.push_back(s);
        g.second.push_back(t);
      }
    }

    if (!local_src.empty()) {
      phase.pre_copies.push_back(sim::CopyOp{x, local_src, local_dst, charge_local});
    }

    for (auto& [y, g] : groups) {
      auto& [src, dst] = g;
      std::vector<int> route = cube::bit_positions(x ^ y);
      if (order == RouteOrder::descending) std::reverse(route.begin(), route.end());
      bool rerouted = false;
      if (faults_ != nullptr && !faults_->empty() && faults_->route_blocked(x, route)) {
        auto detour = fault::route_around(*faults_->topology(), x, y, *faults_);
        if (!detour)
          throw fault::FaultError("swap partner unreachable from node " + std::to_string(x));
        route = std::move(*detour);
        rerouted = true;
      }

      emit_sends(phase, x, y, route, src, dst, policy, element_bytes_, rerouted, scratch);
    }
  }

  append_phase(std::move(phase));
}

void LocationPlanner::local_permutation(const std::function<word(word, word)>& perm,
                                        bool charged, const std::string& label) {
  sim::Phase phase;
  phase.label = label;
  const word nnodes = word{1} << n_;
  for (word x = 0; x < nnodes; ++x) {
    std::vector<sim::slot> src, dst;
    for (word s = 0; s < local_slots_; ++s) {
      if (!occupied_[static_cast<std::size_t>(x)][static_cast<std::size_t>(s)]) continue;
      const word t = perm(x, s);
      if (t != s) {
        src.push_back(s);
        dst.push_back(t);
      }
    }
    if (!src.empty()) phase.pre_copies.push_back(sim::CopyOp{x, src, dst, charged});
  }
  append_phase(std::move(phase));
}

void LocationPlanner::append_phase(sim::Phase phase) {
  if (phase.empty()) return;
  apply_phase_to_occupancy(phase);
  program_.phases.push_back(std::move(phase));
}

void LocationPlanner::apply_phase_to_occupancy(const sim::Phase& phase) {
  // Copies (atomic per op, sequential per list).
  const auto apply_copy = [&](const sim::CopyOp& op) {
    auto& occ = occupied_[static_cast<std::size_t>(op.node)];
    for (const sim::slot s : op.src_slots) occ[static_cast<std::size_t>(s)] = false;
    for (const sim::slot s : op.dst_slots) occ[static_cast<std::size_t>(s)] = true;
  };
  for (const auto& op : phase.pre_copies) apply_copy(op);
  // Sends: clear all sources, then set all destinations.
  for (const auto& op : phase.sends) {
    auto& occ = occupied_[static_cast<std::size_t>(op.src)];
    for (const sim::slot s : op.src_slots) occ[static_cast<std::size_t>(s)] = false;
  }
  for (const auto& op : phase.sends) {
    word dst = op.src;
    for (const int d : op.route) dst = cube::flip_bit(dst, d);
    auto& occ = occupied_[static_cast<std::size_t>(dst)];
    for (const sim::slot s : op.dst_slots) occ[static_cast<std::size_t>(s)] = true;
  }
  for (const auto& op : phase.post_copies) apply_copy(op);
}

sim::Program LocationPlanner::take() && { return std::move(program_); }

ExchangeSequence::ExchangeSequence(LocationPlanner& planner, LocationMap current)
    : planner_(planner), current_(std::move(current)) {}

void ExchangeSequence::exchange_dims(int g, int f, const BufferPolicy& policy,
                                     const std::string& label, RouteOrder order,
                                     bool charge_local) {
  exchange_dims_parallel({{g, f}}, policy, label, order, charge_local);
}

void ExchangeSequence::exchange_dims_parallel(const std::vector<std::pair<int, int>>& pairs,
                                              const BufferPolicy& policy,
                                              const std::string& label, RouteOrder order,
                                              bool charge_local) {
  std::vector<std::pair<LocBit, LocBit>> swaps;
  for (const auto& [g, f] : pairs) {
    const LocBit a = current_.of_dim(g);
    const LocBit b = current_.of_dim(f);
    if (a == b) continue;
    swaps.emplace_back(a, b);
  }
  if (!swaps.empty()) planner_.parallel_swaps(swaps, policy, label, order, charge_local);
  for (const auto& [g, f] : pairs) {
    std::swap(current_.of_dim(g), current_.of_dim(f));
  }
}

}  // namespace nct::comm
