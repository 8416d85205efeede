#include "core/transpose2d.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>

#include "analysis/cost_model.hpp"
#include "comm/rearrange.hpp"
#include "core/router.hpp"
#include "cube/address.hpp"
#include "topology/mpt_paths.hpp"

namespace nct::core {

namespace {

/// Per-node destination slot table: dst[s] is where the element at slot s
/// of node x belongs at node tr(x) (or x itself on the diagonal).
std::vector<sim::slot> destination_slots(const cube::PartitionSpec& before,
                                         const cube::PartitionSpec& after, word x) {
  const cube::MatrixShape shape = before.shape();
  const word L = before.local_elements();
  std::vector<sim::slot> dst(static_cast<std::size_t>(L));
  for (word s = 0; s < L; ++s) {
    const word w = before.element_at(x, s);
    const word wt = cube::transpose_address(shape, w);
    dst[static_cast<std::size_t>(s)] = after.local_of(wt);
  }
  return dst;
}

/// Validates the 2D-transpose precondition and returns n.
int check_pairwise(const cube::PartitionSpec& before, const cube::PartitionSpec& after) {
  assert(after.shape() == before.shape().transposed());
  const int n = before.processor_bits();
  assert(n == after.processor_bits());
  assert(n % 2 == 0);
  const int half = n / 2;
  // Every node's block must map to tr(x) wholesale.
  for (word x = 0; x < before.processors(); ++x) {
    const word w = before.element_at(x, 0);
    const word y = after.processor_of(cube::transpose_address(before.shape(), w));
    assert(y == cube::tr_node(x, half));
    (void)y;
  }
  (void)half;
  return n;
}

/// Shared pipelined-path planner: node x sends its block along
/// `paths(x)` (non-empty for off-diagonal x), split into per-path packet
/// trains.  wave_packets = packets per path launched as one wave.
///
/// With a fault model, each node keeps the surviving members of its
/// healthy path set, refills from `candidates(x)` (the full edge-disjoint
/// MPT family) up to the healthy path count, and as a last resort takes a
/// breadth-first detour around the permanent faults.  Packets whose route
/// differs from their healthy assignment are marked rerouted.
sim::Program pipelined_transpose(
    const cube::PartitionSpec& before, const cube::PartitionSpec& after, word packet_elements,
    int waves, const std::function<std::vector<std::vector<int>>(word)>& paths,
    const std::function<std::vector<std::vector<int>>(word)>& candidates,
    const fault::FaultModel* faults, bool charge_local, const std::string& label) {
  const int n = check_pairwise(before, after);
  const int half = n / 2;
  const word L = before.local_elements();
  if (faults && faults->empty()) faults = nullptr;

  sim::Program prog;
  prog.n = n;
  prog.local_slots = L;

  sim::Phase phase;
  phase.label = label;

  struct Packet {
    word src;
    const std::vector<int>* route;
    word first;
    word count;
    int wave;
    std::size_t path_index;
    bool rerouted;
  };
  std::vector<Packet> packets;
  std::vector<std::vector<std::vector<int>>> node_paths(
      static_cast<std::size_t>(before.processors()));

  for (word x = 0; x < before.processors(); ++x) {
    if (cube::tr_node(x, half) == x) continue;
    const std::vector<std::vector<int>> healthy = paths(x);
    assert(!healthy.empty());
    auto& used = node_paths[static_cast<std::size_t>(x)];
    used = healthy;
    if (faults) {
      std::vector<std::vector<int>> survivors;
      for (const auto& r : healthy)
        if (!faults->route_blocked(x, r)) survivors.push_back(r);
      if (survivors.size() < healthy.size() && candidates) {
        for (auto& r : candidates(x)) {
          if (survivors.size() == healthy.size()) break;
          if (faults->route_blocked(x, r)) continue;
          if (std::find(survivors.begin(), survivors.end(), r) != survivors.end()) continue;
          survivors.push_back(std::move(r));
        }
      }
      if (survivors.empty()) {
        const word dst = cube::tr_node(x, half);
        auto detour = fault::route_around(n, x, dst, *faults);
        if (!detour)
          throw fault::FaultError("transpose partner unreachable from node " +
                                  std::to_string(x));
        survivors.push_back(std::move(*detour));
      }
      used = std::move(survivors);
    }
    const std::size_t np = used.size();
    const std::size_t nh = healthy.size();
    // Round-robin the block over paths in waves: wave w, path p covers
    // packet index w*np + p.
    const word B = std::max<word>(1, packet_elements);
    const word total_packets = (L + B - 1) / B;
    packets.reserve(packets.size() + static_cast<std::size_t>(total_packets));
    for (word i = 0; i < total_packets; ++i) {
      Packet pk;
      pk.src = x;
      pk.path_index = static_cast<std::size_t>(i % np);
      pk.route = &used[pk.path_index];
      pk.first = i * B;
      pk.count = std::min<word>(B, L - pk.first);
      pk.wave = static_cast<int>(i / np);
      pk.rerouted = faults && *pk.route != healthy[static_cast<std::size_t>(i % nh)];
      packets.push_back(pk);
    }
  }
  (void)waves;

  // Launch order: wave by wave, so each node feeds all its paths in
  // parallel and successive waves follow (2, 2H)-disjointly.
  std::stable_sort(packets.begin(), packets.end(),
                   [](const Packet& a, const Packet& b) { return a.wave < b.wave; });

  // Destination slot tables are per node.
  std::vector<std::vector<sim::slot>> dst_tables(
      static_cast<std::size_t>(before.processors()));
  for (word x = 0; x < before.processors(); ++x) {
    dst_tables[static_cast<std::size_t>(x)] = destination_slots(before, after, x);
  }

  std::size_t route_entries = 0, slots = 0;
  for (const Packet& pk : packets) {
    route_entries += pk.route->size();
    slots += static_cast<std::size_t>(pk.count);
  }
  phase.sends.reserve(packets.size(), route_entries, slots);
  std::vector<sim::slot> src;
  for (const Packet& pk : packets) {
    const auto& dt = dst_tables[static_cast<std::size_t>(pk.src)];
    src.resize(static_cast<std::size_t>(pk.count));
    std::iota(src.begin(), src.end(), pk.first);
    phase.sends.add(pk.src, *pk.route, src,
                    std::span(dt).subspan(static_cast<std::size_t>(pk.first),
                                          static_cast<std::size_t>(pk.count)),
                    {false, pk.rerouted});
  }
  prog.phases.push_back(std::move(phase));

  // Diagonal nodes (and any node whose slot table is not the identity
  // after receiving) finish with a local block transpose.  Off-diagonal
  // arrivals already landed in final slots; only diagonal nodes move.
  {
    sim::Phase fin;
    fin.label = "local-transpose";
    for (word x = 0; x < before.processors(); ++x) {
      if (cube::tr_node(x, half) != x) continue;
      const auto& dt = dst_tables[static_cast<std::size_t>(x)].empty()
                           ? destination_slots(before, after, x)
                           : dst_tables[static_cast<std::size_t>(x)];
      std::vector<sim::slot> src, dst;
      for (word s = 0; s < L; ++s) {
        if (dt[static_cast<std::size_t>(s)] != s) {
          src.push_back(s);
          dst.push_back(dt[static_cast<std::size_t>(s)]);
        }
      }
      if (!src.empty()) fin.pre_copies.push_back(sim::CopyOp{x, src, dst, charge_local});
    }
    if (!fin.empty()) prog.phases.push_back(std::move(fin));
  }
  return prog;
}

}  // namespace

word spt_optimal_packet(const sim::MachineParams& machine, word L) {
  const double tc_el = machine.element_tc();
  const int n = machine.n;
  if (tc_el <= 0.0 || n <= 1) return L;
  const double b = std::sqrt(static_cast<double>(L) * machine.tau / ((n - 1) * tc_el));
  return std::clamp<word>(static_cast<word>(std::llround(b)), 1, std::max<word>(L, 1));
}

int mpt_optimal_k(const sim::MachineParams& machine, word L, int h) {
  if (h <= 0) return 1;
  const double tc_el = machine.element_tc();
  if (machine.tau <= 0.0) return 1;
  const double k = std::sqrt(static_cast<double>(L) * tc_el / (2.0 * machine.tau)) /
                   (2.0 * h);
  return std::max(1, static_cast<int>(std::llround(k)));
}

sim::Program transpose_spt(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                           const sim::MachineParams& machine, Transpose2DOptions opt) {
  const int n = before.processor_bits();
  const word L = before.local_elements();
  const word B = opt.packet_elements ? opt.packet_elements : spt_optimal_packet(machine, L);
  return pipelined_transpose(
      before, after, B, 1,
      [n](word x) {
        return std::vector<std::vector<int>>{topo::mpt_path(x, n, 0)};
      },
      [n](word x) { return topo::mpt_paths(x, n); }, opt.faults, opt.charge_local, "spt");
}

sim::Program transpose_dpt(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                           const sim::MachineParams& machine, Transpose2DOptions opt) {
  const int n = before.processor_bits();
  const word L = before.local_elements();
  // B_opt with the volume halved per path (Section 6.1.2).
  word B = opt.packet_elements;
  if (B == 0) {
    const double tc_el = machine.element_tc();
    B = (tc_el <= 0.0 || n <= 1)
            ? std::max<word>(L / 2, 1)
            : std::clamp<word>(
                  static_cast<word>(std::llround(std::sqrt(
                      static_cast<double>(L) * machine.tau / (2.0 * (n - 1) * tc_el)))),
                  1, std::max<word>(L, 1));
  }
  return pipelined_transpose(
      before, after, B, 1,
      [n](word x) {
        const int h = topo::transpose_h(x, n);
        return std::vector<std::vector<int>>{topo::mpt_path(x, n, 0),
                                             topo::mpt_path(x, n, h)};
      },
      [n](word x) { return topo::mpt_paths(x, n); }, opt.faults, opt.charge_local, "dpt");
}

sim::Program transpose_mpt(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                           const sim::MachineParams& machine, Transpose2DOptions opt) {
  const int n = before.processor_bits();
  const word L = before.local_elements();
  // Packet size so that each of the 2H(x) paths carries 2k packets.
  // Packet size varies per node with H(x); pipelined_transpose takes a
  // single B, so we size per the worst case H = n/2 and let smaller-H
  // nodes send more packets per path (still wave-aligned).
  sim::Program prog;
  // Build with per-node packet sizing by calling the shared planner with
  // a path provider and a node-dependent B via a small wrapper: emit per
  // node separately and merge.
  const auto paths_of = [n](word x) { return topo::mpt_paths(x, n); };
  // Use a uniform B chosen from the machine; per-node wave structure is
  // preserved because packets are assigned round-robin over the 2H paths.
  word B = opt.packet_elements;
  if (B == 0 && opt.mpt_k != 0) {
    // 4kH packets over 2H paths => 2k packets per path => B = L / (4kH);
    // sized for the anti-diagonal nodes (H = n/2), which dominate.
    B = std::max<word>(1, L / static_cast<word>(4 * opt.mpt_k * (n / 2)));
  }
  if (B == 0) {
    // Theorem 2's B_opt for the machine's regime.
    const double pq = static_cast<double>(before.shape().elements());
    B = std::clamp<word>(
        static_cast<word>(std::llround(analysis::mpt_optimal_packet(machine, pq))), 1, L);
  }
  prog = pipelined_transpose(before, after, B, 2, paths_of, {}, opt.faults, opt.charge_local,
                             "mpt");
  return prog;
}

sim::Program transpose_2d_stepwise(const cube::PartitionSpec& before,
                                   const cube::PartitionSpec& after,
                                   const sim::MachineParams& machine,
                                   Transpose2DOptions opt) {
  const int n = check_pairwise(before, after);
  const int half = n / 2;
  const word L = before.local_elements();
  const cube::MatrixShape shape = before.shape();

  // Element destinations.
  const auto dest = [&before, &after, shape](word e) -> Placement {
    const word wt = cube::transpose_address(shape, e);
    (void)before;
    return Placement{after.processor_of(wt), after.local_of(wt)};
  };

  // Schedule: iteration i crosses g(i) = i + n/2 then f(i) = i, from the
  // highest index down (the SPT routing order).
  std::vector<std::vector<int>> schedule;
  for (int i = half - 1; i >= 0; --i) schedule.push_back({i + half, i});

  RouterOptions ropt;
  ropt.charge_final_local = opt.charge_local;
  ropt.element_bytes = machine.element_bytes;
  ropt.slot_headroom_factor = 1;  // pairwise exchanges keep loads constant
  auto prog = route_elements(n, comm::spec_image(before, n, L), L, dest, schedule, ropt,
                             "stepwise");

  // The iPSC implementation rearranges the 2D local array into a 1D send
  // buffer and back: 2 * PQ/N * t_copy total (Section 8.2.1).
  if (!prog.phases.empty()) {
    const std::size_t bytes =
        static_cast<std::size_t>(L) * static_cast<std::size_t>(machine.element_bytes);
    auto& first = prog.phases.front();
    auto& last = prog.phases.back();
    first.stage.reserve(first.stage.size() + static_cast<std::size_t>(before.processors()));
    last.post_stage.reserve(last.post_stage.size() +
                            static_cast<std::size_t>(before.processors()));
    for (word x = 0; x < before.processors(); ++x) {
      if (cube::tr_node(x, half) == x) continue;
      first.stage.push_back(sim::StageOp{x, bytes});
      last.post_stage.push_back(sim::StageOp{x, bytes});
    }
  }
  return prog;
}

sim::Program transpose_2d_direct(const cube::PartitionSpec& before,
                                 const cube::PartitionSpec& after,
                                 const sim::MachineParams& machine,
                                 Transpose2DOptions opt) {
  const int n = check_pairwise(before, after);
  const word L = before.local_elements();
  const cube::MatrixShape shape = before.shape();
  const auto dest = [&after, shape](word e) -> Placement {
    const word wt = cube::transpose_address(shape, e);
    return Placement{after.processor_of(wt), after.local_of(wt)};
  };
  RouterOptions ropt;
  ropt.charge_final_local = opt.charge_local;
  ropt.element_bytes = machine.element_bytes;
  ropt.slot_headroom_factor = 1;
  return route_direct(n, comm::spec_image(before, n, L), L, dest, ropt);
}

}  // namespace nct::core
