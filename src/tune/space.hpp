// Candidate-plan enumeration for the transpose autotuner.
//
// The paper's practical result is a set of *crossovers*: stepwise vs
// pipelined SPT/DPT/MPT (Sections 6.1, 8.2), the optimum packet /
// buffer size B_opt (Figs 11, 12 and Theorem 2), buffered vs unbuffered
// exchange (Section 8.1) and one-port vs n-port scheduling (Section 9).
// `Space` enumerates exactly those choices for a concrete (before,
// after, machine) problem:
//
//  * algorithm family — restricted to the families that are *legal* for
//    the spec pair (pairwise 2D layouts get the 2D planners, binary
//    non-pairwise layouts the exchange algorithm, Gray-coded layouts
//    element routing, mixed-encoding 2D pairs the combined sweep);
//  * packet size — a geometric grid seeded around the closed-form
//    optimum `analysis::spt_optimal_packet` (pipelined families), plus
//    the planner's own default;
//  * buffer threshold — a grid around `analysis::optimal_copy_threshold`
//    for the exchange family (unbuffered / fully buffered / optimal-B).
//
// Every candidate carries a cost-model *prior* (`predicted_seconds`);
// enumeration sorts by the prior (deterministic tie-break on candidate
// structure) and truncates to `max_candidates`, so the measurement stage
// only ever times plans the model already considers competitive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/planner.hpp"
#include "cube/partition.hpp"
#include "sim/model.hpp"

namespace nct::tune {

using cube::word;

/// Algorithm family of a candidate plan.  Values are stable (they are
/// persisted in the plan cache); append only.
enum class Family : std::uint8_t {
  stepwise = 0,  ///< iPSC stepwise exchange (Section 8.2.1).
  spt = 1,       ///< Single Path Transpose, pipelined (Section 6.1.1).
  dpt = 2,       ///< Dual Paths Transpose (Section 6.1.2).
  mpt = 3,       ///< Multiple Paths Transpose (Section 6.1.3 / Theorem 2).
  direct2d = 4,  ///< one message per pair through the routing logic.
  exchange = 5,  ///< 1D/general exchange algorithm (Sections 5, 8.1).
  combined = 6,  ///< combined transpose + encoding conversion (Section 6.3).
  routed = 7,    ///< per-dimension element routing (Gray-coded layouts); on
                 ///< non-cube machines, the BFS-routed topo planner.
  ring = 8,      ///< kernel shift stages decomposed into embedded-ring
                 ///< neighbor steps (src/kernels; never emitted for
                 ///< transpose problems).
};

const char* family_name(Family f) noexcept;

/// One point of the search space: a family plus its tunable parameters.
/// Equality and the persisted encoding cover every field that influences
/// the emitted program.
struct Candidate {
  Family family = Family::exchange;
  /// Pipelined 2D families: packet size in elements (0 = planner default,
  /// i.e. the closed-form B_opt).
  word packet_elements = 0;
  /// Exchange family: buffering mode and (for BufferMode::optimal) the
  /// minimum unbuffered run length in elements.
  comm::BufferMode buffer_mode = comm::BufferMode::buffered;
  word b_copy_elements = 0;
  /// Cost-model prior in seconds; infinity when no closed form applies
  /// (such candidates are kept only if the space has room).
  double predicted_seconds = 0.0;

  /// Identity ignores the prior (two enumerations with different machine
  /// constants can still agree on the candidate itself).  Keep
  /// tune::serialize(ByteWriter&, const Candidate&) to the same fields:
  /// the plan store and the server's program cache key on it.
  friend bool operator==(const Candidate& a, const Candidate& b) noexcept {
    return a.family == b.family && a.packet_elements == b.packet_elements &&
           a.buffer_mode == b.buffer_mode && a.b_copy_elements == b.b_copy_elements;
  }

  std::string describe() const;
};

struct SpaceOptions {
  /// Restrict enumeration to these families (empty = every legal family).
  std::vector<Family> families;
  /// Keep at most this many candidates after prior-based pruning.
  std::size_t max_candidates = 24;
};

/// The pruned candidate set for one tuning problem.  Enumeration is a
/// pure function of (before, after, machine, options) — no randomness,
/// no measurement — so the same problem always yields the same
/// candidates in the same order.
class Space {
 public:
  Space(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
        const sim::MachineParams& machine, SpaceOptions options = {});

  /// Sorted by cost-model prior (ascending), ties broken by enumeration
  /// order; truncated to options.max_candidates.
  const std::vector<Candidate>& candidates() const noexcept { return candidates_; }

  /// Packet-size grid for the pipelined 2D families: planner default (0)
  /// plus {B/4, B/2, B, 2B, 4B} around B = spt_optimal_packet, clamped
  /// to [1, PQ/N], deduplicated, ascending.
  static std::vector<word> packet_grid(const sim::MachineParams& machine, double pq);

  /// Buffer-threshold grid for the exchange family around
  /// B_copy = optimal_copy_threshold (tau / t_copy); empty when the
  /// machine copies for free (the threshold is unbounded).
  static std::vector<word> copy_threshold_grid(const sim::MachineParams& machine,
                                               word local_elements);

 private:
  std::vector<Candidate> candidates_;
};

}  // namespace nct::tune
