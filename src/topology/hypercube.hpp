// Directed links of the Boolean n-cube (Definition 5): 2^n nodes, node x
// adjacent to x with any single bit complemented.  A link is named by its
// source node and the dimension it crosses; link_index is the dense
// directed-link numbering that fault tables, traces and the runtime
// share (topo::HypercubeTopology::link_index numbers links the same way).
#pragma once

#include <cstddef>

#include "cube/bits.hpp"

namespace nct::topo {

using cube::word;

/// A directed cube link: from node `from` across dimension `dim`.
struct DirectedLink {
  word from = 0;
  int dim = 0;

  word to() const noexcept { return cube::flip_bit(from, dim); }

  friend bool operator==(const DirectedLink&, const DirectedLink&) = default;
};

/// Dense index of a directed link for O(1) tables: 2^n * n entries.
constexpr std::size_t link_index(int n, DirectedLink l) noexcept {
  return static_cast<std::size_t>(l.from) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(l.dim);
}

}  // namespace nct::topo
