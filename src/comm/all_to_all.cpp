#include "comm/all_to_all.hpp"

#include <cassert>
#include <numeric>

#include "topology/sbnt.hpp"

namespace nct::comm {

namespace {

std::vector<sim::slot> slot_range(word first, word count) {
  std::vector<sim::slot> s(static_cast<std::size_t>(count));
  std::iota(s.begin(), s.end(), first);
  return s;
}

}  // namespace

sim::Program all_to_all_exchange(int n, word K, const BufferPolicy& policy,
                                 bool descending) {
  assert(n >= 1);
  assert(cube::is_pow2(K));
  const int k_bits = cube::log2_exact(K);
  const word local = (word{1} << n) * K;

  LocationPlanner planner(n, local);
  planner.occupy_nodes(word{1} << n);

  // Exchange step i pairs cube dimension d with the slot bit holding the
  // destination-block index bit d; scanning from the highest dimension
  // keeps the first exchange a single contiguous block, doubling the
  // block count each step (Section 3.2).
  for (int i = 0; i < n; ++i) {
    const int d = descending ? n - 1 - i : i;
    planner.parallel_swaps({{LocBit::node_bit(d), LocBit::slot_bit(k_bits + d)}}, policy,
                           "exchange-dim-" + std::to_string(d));
  }
  return std::move(planner).take();
}

sim::Program all_to_all_sbnt(int n, word K) {
  assert(n >= 1);
  const word N = word{1} << n;
  const topo::SpanningBalancedNTree tree(n, 0);

  sim::Program prog;
  prog.n = n;
  prog.local_slots = N * K;

  sim::Phase phase;
  phase.label = "sbnt-all-to-all";
  // The SBnT rooted at x is the translation of the base tree: the path
  // from x to j crosses the dimensions of the base-tree path to x ^ j.
  for (word x = 0; x < N; ++x) {
    for (word rel = 1; rel < N; ++rel) {
      const word j = x ^ rel;
      phase.sends.add(x, tree.path_dims_from_root(rel), slot_range(j * K, K),
                      slot_range(x * K, K));
    }
  }
  prog.phases.push_back(std::move(phase));
  return prog;
}

sim::Program all_to_all_direct(int n, word K) {
  assert(n >= 1);
  const word N = word{1} << n;

  sim::Program prog;
  prog.n = n;
  prog.local_slots = N * K;

  sim::Phase phase;
  phase.label = "direct-all-to-all";
  for (word x = 0; x < N; ++x) {
    for (word j = 0; j < N; ++j) {
      if (j == x) continue;
      // Ascending e-cube routing.
      phase.sends.add(x, cube::bit_positions(x ^ j), slot_range(j * K, K),
                      slot_range(x * K, K));
    }
  }
  prog.phases.push_back(std::move(phase));
  return prog;
}

sim::Memory all_to_all_initial_memory(int n, word K) {
  const word N = word{1} << n;
  sim::Memory mem(static_cast<std::size_t>(N),
                  std::vector<word>(static_cast<std::size_t>(N * K)));
  for (word x = 0; x < N; ++x) {
    for (word s = 0; s < N * K; ++s) {
      mem[static_cast<std::size_t>(x)][static_cast<std::size_t>(s)] = x * N * K + s;
    }
  }
  return mem;
}

sim::Memory all_to_all_expected_memory(int n, word K) {
  const word N = word{1} << n;
  sim::Memory mem(static_cast<std::size_t>(N),
                  std::vector<word>(static_cast<std::size_t>(N * K)));
  for (word j = 0; j < N; ++j) {
    for (word x = 0; x < N; ++x) {
      for (word k = 0; k < K; ++k) {
        // Node j's slot block x holds what node x kept for j.
        mem[static_cast<std::size_t>(j)][static_cast<std::size_t>(x * K + k)] =
            x * N * K + j * K + k;
      }
    }
  }
  return mem;
}

}  // namespace nct::comm
