// Generic storage rearrangement between binary-encoded partition specs:
// the engine behind the 1D transposes, the cyclic <-> consecutive
// conversions (Corollaries 6 and 7) and the some-to-all / all-to-some
// personalized communications of Section 3.3.
//
// The rearrangement is planned as a sequence of location-bit swaps (one
// exchange-algorithm step each).  Swaps fall into three classes by how
// they use the cube dimension involved:
//  * splitting   — a dimension unused before the rearrangement becomes
//                  used (one step of one-to-all personalized
//                  communication: the data fans out);
//  * exchange    — the dimension is used before and after (one step of
//                  all-to-all personalized communication);
//  * accumulation — a used dimension becomes unused (one step of
//                  all-to-one personalized communication: data gathers).
//
// Theorem 1: splitting steps should be performed first and accumulation
// steps last to minimise the transfer time; SplitTiming::pessimal
// schedules them in the opposite order for comparison.
#pragma once

#include "comm/location.hpp"
#include "comm/planner.hpp"
#include "sim/program.hpp"

namespace nct::comm {

enum class SplitTiming {
  optimal,   ///< splits first, accumulations last (Theorem 1).
  pessimal,  ///< accumulations first, splits last.
};

struct RearrangeOptions {
  BufferPolicy policy = BufferPolicy::buffered();
  SplitTiming split_timing = SplitTiming::optimal;
  /// Charge the final local permutation as real copies; false models
  /// completion "implicitly by indirect addressing" (Section 5).
  bool charge_final_local = true;
  RouteOrder route_order = RouteOrder::descending;
};

/// Plan the location transformation taking `current` to `goal` for data
/// initially occupying slots [0, active_slots) of nodes
/// [0, active_nodes).  Emits communication swaps followed by one local
/// permutation that fixes all slot-level placement.
sim::Program rearrange(int n, word local_slots, const LocationMap& current,
                       const LocationMap& goal, word active_nodes, word active_slots,
                       const RearrangeOptions& options = {});

/// Append one local permutation moving every occupied slot from its
/// position under `current` to its position under `goal`.  Both maps
/// must agree on every node bit (communication already done).
void append_final_local_permutation(LocationPlanner& planner, const LocationMap& current,
                                    const LocationMap& goal, bool charged);

/// Storage-form conversion of a matrix distributed by `before` into the
/// distribution `after` (same shape, both binary encoded, e.g. the
/// consecutive -> cyclic conversions of Figure 10).
sim::Program convert_storage(const cube::PartitionSpec& before,
                             const cube::PartitionSpec& after, int machine_n,
                             const RearrangeOptions& options = {});

/// Plan an arbitrary dimension permutation of a distributed matrix
/// (Section 7): the element with address w moves to the location `after`
/// assigns to the permuted address w' with w'_i = w_{delta(i)}.
/// Transposition (delta = rotation by p), bit reversal and the
/// k-shuffles are special cases.  Both specs must be binary encoded and
/// share the element count.
sim::Program permute_dimensions(const cube::PartitionSpec& before,
                                const cube::PartitionSpec& after,
                                const std::vector<int>& delta, int machine_n,
                                const RearrangeOptions& options = {});

/// Expected memory after permute_dimensions: payloads are original
/// element addresses.
sim::Memory permuted_memory(const cube::PartitionSpec& after, const std::vector<int>& delta,
                            int machine_n, word local_slots);

/// Initial memory image for a spec on a machine with 2^machine_n nodes.
sim::Memory spec_memory(const cube::PartitionSpec& spec, int machine_n, word local_slots);

/// spec_memory as one flat image: node x's `local_slots` slots are
/// [x * local_slots, (x + 1) * local_slots).
std::vector<word> spec_image(const cube::PartitionSpec& spec, int machine_n, word local_slots);

/// Expected memory after transposition: `after` is a spec over the
/// transposed shape; slot contents are the *original* element addresses.
sim::Memory transposed_memory(const cube::MatrixShape& before_shape,
                              const cube::PartitionSpec& after, int machine_n,
                              word local_slots);

}  // namespace nct::comm
