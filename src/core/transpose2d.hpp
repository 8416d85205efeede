// Two-dimensional matrix transposition (Section 6.1): with the same
// number of processor dimensions for rows and columns (n_r = n_c = n/2)
// and the same assignment scheme and encoding before and after, every
// node x exchanges its entire block with the node tr(x) = (x_c || x_r) —
// communication is between distinct source/destination pairs only, and
// I = R_b = R_a.
//
// Planners:
//  * transpose_spt  — Single Path Transpose: one directed path per pair,
//    pipelined packets; paths are edge-disjoint across pairs.
//    T = (ceil(PQ/(B N)) + n - 1)(B t_c + tau).
//  * transpose_dpt  — Dual Paths: a second pairwise-permuted path halves
//    the per-path volume; requires bi-directional n-port nodes.
//  * transpose_mpt  — Multiple Paths: 2H(x) edge-disjoint paths per node
//    (Section 6.1.3), data split into 4kH(x) packets launched in waves
//    two cycles apart ((2, 2H)-disjointness, Lemma 14); Theorem 2 gives
//    the resulting T_min and B_opt.
//  * transpose_2d_stepwise — the iPSC implementation (Section 8.2.1):
//    n/2 exchange iterations with no pipelining plus array
//    rearrangement copies; T = (PQ/N t_c + ceil(PQ/(B_m N)) tau) n
//    + 2 PQ/N t_copy.
//  * transpose_2d_direct — one message per pair handed to the routing
//    logic (Figure 14b and the Connection Machine runs).
//
// All planners work for binary or Gray encodings as long as rows and
// columns use the same encoding (Section 6.1: the algorithms realise the
// node permutation x -> tr(x), which commutes with per-field encoding).
#pragma once

#include <vector>

#include "cube/partition.hpp"
#include "fault/fault.hpp"
#include "sim/model.hpp"
#include "sim/program.hpp"

namespace nct::core {

using cube::word;

struct Transpose2DOptions {
  /// Packet size in elements; 0 = the algorithm's B_opt for the machine.
  word packet_elements = 0;
  /// MPT wave count k (data splits into 4kH(x) packets); 0 = optimal.
  int mpt_k = 0;
  /// Charge the local block transpose (diagonal nodes and slot fix-ups).
  bool charge_local = true;
  /// Failure-aware planning (SPT/DPT/MPT): routes avoid the model's
  /// permanently-failed links by selecting survivors from the node's
  /// 2H(x) edge-disjoint MPT path family (Theorem 2's redundancy); when
  /// the whole family is severed the planner falls back to a breadth-
  /// first detour, and throws fault::FaultError only if the transpose
  /// partner is disconnected outright.  Packets whose route differs from
  /// the healthy assignment are marked SendOp::rerouted.  Transient
  /// (finite-window) faults are left to the engine's retry semantics.
  /// Not owned; null = plan for a healthy cube.
  const fault::FaultModel* faults = nullptr;
  /// SPT/DPT/MPT: the spec pair's destination_tables(before, after),
  /// computed once by a caller that builds many packet sizes of one
  /// problem (the tuner).  An input cache only: the program is the same
  /// with or without it; a table of the wrong size throws
  /// std::invalid_argument.  Not owned; null = compute them.
  const std::vector<sim::slot>* slot_tables = nullptr;
};

/// Destination slot tables of a 2D transpose, node-major: entry
/// x * L + s (L = before.local_elements()) is the slot at node tr(x)
/// (x itself on the diagonal) where the element at slot s of node x
/// belongs.  They depend on the spec pair only, not on the packet size.
std::vector<sim::slot> destination_tables(const cube::PartitionSpec& before,
                                          const cube::PartitionSpec& after);

/// Single Path Transpose, pipelined.
sim::Program transpose_spt(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                           const sim::MachineParams& machine, Transpose2DOptions opt = {});

/// Dual Paths Transpose.
sim::Program transpose_dpt(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                           const sim::MachineParams& machine, Transpose2DOptions opt = {});

/// Multiple Paths Transpose.
sim::Program transpose_mpt(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                           const sim::MachineParams& machine, Transpose2DOptions opt = {});

/// Stepwise exchange implementation (iPSC, Section 8.2.1).
sim::Program transpose_2d_stepwise(const cube::PartitionSpec& before,
                                   const cube::PartitionSpec& after,
                                   const sim::MachineParams& machine,
                                   Transpose2DOptions opt = {});

/// Direct sends through the routing logic.
sim::Program transpose_2d_direct(const cube::PartitionSpec& before,
                                 const cube::PartitionSpec& after,
                                 const sim::MachineParams& machine,
                                 Transpose2DOptions opt = {});

/// B_opt for the pipelined SPT: sqrt(PQ tau / (N (n-1) t_c)) elements
/// (Section 6.1.1), clamped to [1, PQ/N].
word spt_optimal_packet(const sim::MachineParams& machine, word local_elements);

/// Optimal MPT wave count k for a node with H(x) = h (Section 6.1.3).
int mpt_optimal_k(const sim::MachineParams& machine, word local_elements, int h);

}  // namespace nct::core
