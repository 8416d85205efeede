#include "comm/one_to_all.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>

#include "topology/sbnt.hpp"
#include "topology/sbt.hpp"

namespace nct::comm {

namespace {

/// Slots [first, first + count).
std::vector<sim::slot> slot_range(word first, word count) {
  std::vector<sim::slot> s(static_cast<std::size_t>(count));
  std::iota(s.begin(), s.end(), first);
  return s;
}

/// Physical cube dimension of canonical dimension d for a tree with the
/// given rotation/reflection (matches SpanningBinomialTree path mapping).
int physical_dim(int n, int d, int rotation, bool reflected) {
  if (reflected) d = n - 1 - d;
  return (d + rotation) % n;
}

}  // namespace

sim::Program one_to_all_sbt(int n, word K, word root, int rotation, bool reflected) {
  assert(n >= 0);
  const word N = word{1} << n;
  topo::SpanningBinomialTree tree(n, root, rotation, reflected);

  sim::Program prog;
  prog.n = n;
  prog.local_slots = N * K;

  // Recursive halving over canonical dimensions n-1 .. 0.  In phase t the
  // canonical nodes with bits [0, n-1-t] clear send the blocks of the
  // subtree across canonical dimension n-1-t.
  std::vector<sim::slot> slots;
  for (int t = 0; t < n; ++t) {
    const int d = n - 1 - t;
    sim::Phase phase;
    phase.label = "sbt-dim-" + std::to_string(d);
    for (word c = 0; c < N; c += word{1} << (d + 1)) {
      // c has bits [0, d] zero by construction of the loop stride.
      const word src = tree.from_canonical(c);
      const int dim = physical_dim(n, d, rotation, reflected);
      slots.clear();
      for (word b = 0; b < (word{1} << d); ++b) {
        const word dest_phys = tree.from_canonical((c | (word{1} << d)) + b);
        for (word k = 0; k < K; ++k) slots.push_back(dest_phys * K + k);
      }
      phase.sends.add(src, std::span(&dim, 1), slots, slots);
    }
    prog.phases.push_back(std::move(phase));
  }

  // Normalise every node's own block to slots [0, K).
  {
    sim::Phase norm;
    norm.label = "normalize";
    for (word y = 0; y < N; ++y) {
      if (y * K == 0) continue;
      norm.pre_copies.push_back(
          sim::CopyOp{y, slot_range(y * K, K), slot_range(0, K), false});
    }
    prog.phases.push_back(std::move(norm));
  }
  return prog;
}

sim::Program one_to_all_sbnt(int n, word K, word root) {
  assert(n >= 1);
  const word N = word{1} << n;
  const topo::SpanningBalancedNTree tree(n, root);

  sim::Program prog;
  prog.n = n;
  prog.local_slots = N * K;

  sim::Phase phase;
  phase.label = "sbnt-scatter";
  // Reverse breadth-first per subtree: deepest destinations first, so the
  // pipeline drains outward without head-of-line blocking.
  std::vector<word> dests;
  for (word y = 0; y < N; ++y) {
    if (y != root) dests.push_back(y);
  }
  std::stable_sort(dests.begin(), dests.end(), [&](word a, word b) {
    return tree.path_dims_from_root(a).size() > tree.path_dims_from_root(b).size();
  });
  for (const word y : dests) {
    phase.sends.add(root, tree.path_dims_from_root(y), slot_range(y * K, K),
                    slot_range(0, K));
  }
  prog.phases.push_back(std::move(phase));

  // The root's own block moves locally.
  if (root * K != 0) {
    sim::Phase norm;
    norm.label = "normalize";
    norm.pre_copies.push_back(
        sim::CopyOp{root, slot_range(root * K, K), slot_range(0, K), false});
    prog.phases.push_back(std::move(norm));
  }
  return prog;
}

sim::Program one_to_all_rotated_sbts(int n, word K, word root) {
  assert(n >= 1);
  const word N = word{1} << n;

  sim::Program prog;
  prog.n = n;
  prog.local_slots = N * K;

  struct Packet {
    word dest;
    int tree;
    std::size_t depth;
    word offset;
    word count;
  };
  std::vector<Packet> packets;
  std::vector<topo::SpanningBinomialTree> trees;
  trees.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) trees.emplace_back(n, root, r);

  const word base = K / static_cast<word>(n);
  const word rem = K % static_cast<word>(n);
  for (word y = 0; y < N; ++y) {
    if (y == root) continue;
    word off = 0;
    for (int r = 0; r < n; ++r) {
      const word count = base + (static_cast<word>(r) < rem ? 1 : 0);
      if (count == 0) continue;
      packets.push_back(
          {y, r, trees[static_cast<std::size_t>(r)].path_dims_from_root(y).size(), off,
           count});
      off += count;
    }
  }
  // Deepest-first scheduling across all trees.
  std::stable_sort(packets.begin(), packets.end(),
                   [](const Packet& a, const Packet& b) { return a.depth > b.depth; });

  sim::Phase phase;
  phase.label = "rotated-sbts-scatter";
  for (const Packet& p : packets) {
    phase.sends.add(root, trees[static_cast<std::size_t>(p.tree)].path_dims_from_root(p.dest),
                    slot_range(p.dest * K + p.offset, p.count), slot_range(p.offset, p.count));
  }
  prog.phases.push_back(std::move(phase));

  if (root * K != 0) {
    sim::Phase norm;
    norm.label = "normalize";
    norm.pre_copies.push_back(
        sim::CopyOp{root, slot_range(root * K, K), slot_range(0, K), false});
    prog.phases.push_back(std::move(norm));
  }
  return prog;
}

sim::Program all_to_one_sbt(int n, word K, word root) {
  assert(n >= 0);
  const word N = word{1} << n;
  const topo::SpanningBinomialTree tree(n, root);

  sim::Program prog;
  prog.n = n;
  prog.local_slots = N * K;

  // Move every node's block to its block-indexed slots first (free
  // relabelling), so accumulated data never collides.
  {
    sim::Phase prep;
    prep.label = "index-blocks";
    for (word y = 0; y < N; ++y) {
      if (y * K == 0) continue;
      prep.pre_copies.push_back(
          sim::CopyOp{y, slot_range(0, K), slot_range(y * K, K), false});
    }
    prog.phases.push_back(std::move(prep));
  }

  // Recursive doubling toward the root: ascending canonical dimensions.
  // In phase t the canonical nodes with bit t set and bits below t clear
  // forward everything they hold (their own block plus already gathered
  // subtree blocks: canonical addresses c .. c + 2^t - 1).
  std::vector<sim::slot> slots;
  for (int t = 0; t < n; ++t) {
    sim::Phase phase;
    phase.label = "gather-dim-" + std::to_string(t);
    for (word c = word{1} << t; c < N; c += word{1} << (t + 1)) {
      const word src = tree.from_canonical(c);
      slots.clear();
      for (word b = 0; b < (word{1} << t); ++b) {
        const word holder = tree.from_canonical(c + b);
        for (word k = 0; k < K; ++k) slots.push_back(holder * K + k);
      }
      // Canonical == physical (no rotation/reflection).
      phase.sends.add(src, std::span(&t, 1), slots, slots);
    }
    prog.phases.push_back(std::move(phase));
  }
  return prog;
}

sim::Memory one_to_all_initial_memory(int n, word K, word root) {
  const word N = word{1} << n;
  sim::Memory mem(static_cast<std::size_t>(N),
                  std::vector<word>(static_cast<std::size_t>(N * K), sim::kEmptySlot));
  for (word y = 0; y < N; ++y) {
    for (word k = 0; k < K; ++k) {
      mem[static_cast<std::size_t>(root)][static_cast<std::size_t>(y * K + k)] = y * K + k;
    }
  }
  return mem;
}

sim::Memory one_to_all_expected_memory(int n, word K, word /*root*/) {
  const word N = word{1} << n;
  sim::Memory mem(static_cast<std::size_t>(N),
                  std::vector<word>(static_cast<std::size_t>(N * K), sim::kEmptySlot));
  for (word y = 0; y < N; ++y) {
    for (word k = 0; k < K; ++k) {
      mem[static_cast<std::size_t>(y)][static_cast<std::size_t>(k)] = y * K + k;
    }
  }
  return mem;
}

}  // namespace nct::comm
