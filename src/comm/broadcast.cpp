#include "comm/broadcast.hpp"

#include <cassert>
#include <numeric>
#include <span>

#include "topology/sbt.hpp"

namespace nct::comm {

namespace {

std::vector<sim::slot> slot_range(word first, word count) {
  std::vector<sim::slot> s(static_cast<std::size_t>(count));
  std::iota(s.begin(), s.end(), first);
  return s;
}

}  // namespace

sim::Program one_to_all_broadcast_sbt(int n, word K, word packet_elements, word root) {
  assert(n >= 0);
  const word N = word{1} << n;
  const word B = packet_elements == 0 ? K : packet_elements;
  const word chunks = (K + B - 1) / B;
  const topo::SpanningBinomialTree tree(n, root);

  sim::Program prog;
  prog.n = n;
  prog.local_slots = K;
  if (n == 0 || K == 0) return prog;

  // Chunk c crosses the edge into a depth-d node during step d - 1 + c;
  // each step is one phase, so the packets pipeline down the tree.
  const word steps = static_cast<word>(n) + chunks - 1;
  for (word step = 0; step < steps; ++step) {
    sim::Phase phase;
    phase.label = "broadcast-step-" + std::to_string(step);
    for (word v = 0; v < N; ++v) {
      if (v == root) continue;
      const int depth = tree.depth(v);
      // Chunk index crossing into v this step.
      const word d = static_cast<word>(depth);
      if (step + 1 < d || step + 1 >= d + chunks) continue;
      const word c = step + 1 - d;
      const word first = c * B;
      const word count = std::min<word>(B, K - first);
      if (count == 0) continue;
      const word parent = tree.parent(v);
      // The connecting dimension is the single differing bit.
      const int dim = cube::lowest_set_bit(parent ^ v);
      const auto slots = slot_range(first, count);
      phase.sends.add(parent, std::span(&dim, 1), slots, slots, {true, false});
    }
    if (!phase.empty()) prog.phases.push_back(std::move(phase));
  }
  return prog;
}

sim::Program one_to_all_broadcast_rotated_sbts(int n, word K, word root) {
  assert(n >= 1);
  const word N = word{1} << n;

  sim::Program prog;
  prog.n = n;
  prog.local_slots = K;

  std::vector<topo::SpanningBinomialTree> trees;
  trees.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) trees.emplace_back(n, root, r);

  const word base = K / static_cast<word>(n);
  const word rem = K % static_cast<word>(n);
  std::vector<word> part_first(static_cast<std::size_t>(n)), part_count(
      static_cast<std::size_t>(n));
  word off = 0;
  for (int r = 0; r < n; ++r) {
    part_count[static_cast<std::size_t>(r)] = base + (static_cast<word>(r) < rem ? 1 : 0);
    part_first[static_cast<std::size_t>(r)] = off;
    off += part_count[static_cast<std::size_t>(r)];
  }

  // Step s: the edges into depth-(s+1) nodes of every tree carry that
  // tree's part concurrently (distinct trees use distinct dimensions at
  // the root and mostly disjoint edges below).
  for (int step = 0; step < n; ++step) {
    sim::Phase phase;
    phase.label = "rot-broadcast-step-" + std::to_string(step);
    for (int t = 0; t < n; ++t) {
      if (part_count[static_cast<std::size_t>(t)] == 0) continue;
      const auto& tree = trees[static_cast<std::size_t>(t)];
      for (word v = 0; v < N; ++v) {
        if (v == root || tree.depth(v) != step + 1) continue;
        const word parent = tree.parent(v);
        const int dim = cube::lowest_set_bit(parent ^ v);
        const auto slots = slot_range(part_first[static_cast<std::size_t>(t)],
                                      part_count[static_cast<std::size_t>(t)]);
        phase.sends.add(parent, std::span(&dim, 1), slots, slots, {true, false});
      }
    }
    if (!phase.empty()) prog.phases.push_back(std::move(phase));
  }
  return prog;
}

sim::Program all_to_all_broadcast(int n, word K) {
  assert(n >= 1);
  const word N = word{1} << n;

  sim::Program prog;
  prog.n = n;
  prog.local_slots = N * K;

  // Doubling exchange: after phase d every node holds the blocks of all
  // sources agreeing with it outside dimensions 0..d.
  for (int d = 0; d < n; ++d) {
    sim::Phase phase;
    phase.label = "gossip-dim-" + std::to_string(d);
    const word low_mask = cube::low_mask(d);
    std::vector<sim::slot> slots;
    for (word x = 0; x < N; ++x) {
      slots.clear();
      for (word y = 0; y < N; ++y) {
        if (((y ^ x) & ~low_mask) != 0) continue;  // not yet held by x
        for (word k = 0; k < K; ++k) slots.push_back(y * K + k);
      }
      phase.sends.add(x, std::span(&d, 1), slots, slots, {true, false});
    }
    prog.phases.push_back(std::move(phase));
  }
  return prog;
}

sim::Memory broadcast_initial_memory(int n, word K, word root) {
  const word N = word{1} << n;
  sim::Memory mem(static_cast<std::size_t>(N),
                  std::vector<word>(static_cast<std::size_t>(K), sim::kEmptySlot));
  for (word k = 0; k < K; ++k) mem[static_cast<std::size_t>(root)][static_cast<std::size_t>(k)] = k;
  return mem;
}

sim::Memory broadcast_expected_memory(int n, word K) {
  const word N = word{1} << n;
  sim::Memory mem(static_cast<std::size_t>(N), std::vector<word>(static_cast<std::size_t>(K)));
  for (auto& node : mem) {
    for (word k = 0; k < K; ++k) node[static_cast<std::size_t>(k)] = k;
  }
  return mem;
}

sim::Memory gossip_initial_memory(int n, word K) {
  const word N = word{1} << n;
  sim::Memory mem(static_cast<std::size_t>(N),
                  std::vector<word>(static_cast<std::size_t>(N * K), sim::kEmptySlot));
  for (word x = 0; x < N; ++x) {
    for (word k = 0; k < K; ++k) {
      mem[static_cast<std::size_t>(x)][static_cast<std::size_t>(x * K + k)] = x * K + k;
    }
  }
  return mem;
}

sim::Memory gossip_expected_memory(int n, word K) {
  const word N = word{1} << n;
  sim::Memory mem(static_cast<std::size_t>(N),
                  std::vector<word>(static_cast<std::size_t>(N * K)));
  for (auto& node : mem) {
    for (word s = 0; s < N * K; ++s) node[static_cast<std::size_t>(s)] = s;
  }
  return mem;
}

}  // namespace nct::comm
