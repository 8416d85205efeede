#include "core/transpose2d.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "analysis/cost_model.hpp"
#include "comm/rearrange.hpp"
#include "core/router.hpp"
#include "cube/address.hpp"
#include "topology/mpt_paths.hpp"

namespace nct::core {

namespace {

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
/// `paths(x)` (non-empty for off-diagonal x), split into packets of
/// `packet_elements` dealt round-robin over the paths: packet i rides
/// path i mod np in wave i / np.
///
/// With a fault model, each node keeps the surviving members of its
/// healthy path set, refills from `candidates(x)` (the full edge-disjoint
/// MPT family) up to the healthy path count, and as a last resort takes a
/// breadth-first detour around the permanent faults.  Packets whose route
/// differs from their healthy assignment are marked rerouted.
sim::Program pipelined_transpose(
    const cube::PartitionSpec& before, const cube::PartitionSpec& after, word packet_elements,
    const std::function<std::vector<std::vector<int>>(word)>& paths,
    const std::function<std::vector<std::vector<int>>(word)>& candidates,
    const Transpose2DOptions& opt, const std::string& label) {
  const int n = check_pairwise(before, after);
  const int half = n / 2;
  const word N = before.processors();
  const auto L = static_cast<std::size_t>(before.local_elements());
  const fault::FaultModel* faults = opt.faults && !opt.faults->empty() ? opt.faults : nullptr;

  std::vector<sim::slot> own_tables;
  if (opt.slot_tables == nullptr) own_tables = destination_tables(before, after);
  const std::vector<sim::slot>& tables = opt.slot_tables ? *opt.slot_tables : own_tables;
  if (tables.size() != static_cast<std::size_t>(N) * L)
    throw std::invalid_argument("slot_tables do not match the spec pair");
  const auto table_of = [&tables, L](word x) {
    return std::span(tables).subspan(static_cast<std::size_t>(x) * L, L);
  };

  // Each off-diagonal node's routes; `healthy` is kept only when a fault
  // changed them, for the rerouted flag.
  struct NodeRoutes {
    std::vector<std::vector<int>> used, healthy;
  };
  std::vector<NodeRoutes> routes(static_cast<std::size_t>(N));
  const std::size_t B = std::max<std::size_t>(1, static_cast<std::size_t>(packet_elements));
  const std::size_t total_packets = (L + B - 1) / B;
  std::size_t senders = 0, route_entries = 0, waves = 0;
  for (word x = 0; x < N; ++x) {
    if (cube::tr_node(x, half) == x) continue;
    NodeRoutes& r = routes[static_cast<std::size_t>(x)];
    r.used = paths(x);
    assert(!r.used.empty());
    if (faults) {
      std::vector<std::vector<int>> survivors;
      for (const auto& route : r.used)
        if (!faults->route_blocked(x, route)) survivors.push_back(route);
      if (survivors.size() < r.used.size() && candidates) {
        for (auto& route : candidates(x)) {
          if (survivors.size() == r.used.size()) break;
          if (faults->route_blocked(x, route)) continue;
          if (std::find(survivors.begin(), survivors.end(), route) != survivors.end()) continue;
          survivors.push_back(std::move(route));
        }
      }
      if (survivors.empty()) {
        auto detour =
            fault::route_around(*faults->topology(), x, cube::tr_node(x, half), *faults);
        if (!detour)
          throw fault::FaultError("transpose partner unreachable from node " +
                                  std::to_string(x));
        survivors.push_back(std::move(*detour));
      }
      if (survivors != r.used) {
        r.healthy = std::move(r.used);
        r.used = std::move(survivors);
      }
    }
    const std::size_t np = r.used.size();
    for (std::size_t p = 0; p < np; ++p)
      route_entries += (total_packets / np + (p < total_packets % np ? 1 : 0)) * r.used[p].size();
    ++senders;
    waves = std::max(waves, (total_packets + np - 1) / np);
  }

  sim::Program prog;
  prog.n = n;
  prog.local_slots = static_cast<word>(L);

  // Launch order: wave by wave, so each node feeds all its paths in
  // parallel and successive waves follow (2, 2H)-disjointly; within a
  // wave, nodes ascending, then paths.
  sim::Phase phase;
  phase.label = label;
  phase.sends.reserve(senders * total_packets, route_entries, senders * L);
  std::vector<sim::slot> identity(L);
  std::iota(identity.begin(), identity.end(), sim::slot{0});
  const std::span<const sim::slot> src_slots(identity);
  for (std::size_t w = 0; w < waves; ++w) {
    for (word x = 0; x < N; ++x) {
      const NodeRoutes& r = routes[static_cast<std::size_t>(x)];
      const std::size_t np = r.used.size();
      const auto dst_slots = table_of(x);
      for (std::size_t p = 0; p < np; ++p) {
        const std::size_t i = w * np + p;
        if (i >= total_packets) break;
        const std::size_t first = i * B;
        const std::size_t count = std::min(B, L - first);
        const bool rerouted =
            !r.healthy.empty() && r.used[p] != r.healthy[i % r.healthy.size()];
        phase.sends.add(x, r.used[p], src_slots.subspan(first, count),
                        dst_slots.subspan(first, count), {false, rerouted});
      }
    }
  }
  prog.phases.push_back(std::move(phase));

  // Off-diagonal arrivals already landed in final slots; diagonal nodes
  // finish with a local block transpose.
  sim::Phase fin;
  fin.label = "local-transpose";
  for (word x = 0; x < N; ++x) {
    if (cube::tr_node(x, half) != x) continue;
    const auto dt = table_of(x);
    std::vector<sim::slot> src, dst;
    for (std::size_t s = 0; s < L; ++s) {
      if (dt[s] != s) {
        src.push_back(s);
        dst.push_back(dt[s]);
      }
    }
    if (!src.empty()) fin.pre_copies.push_back(sim::CopyOp{x, src, dst, opt.charge_local});
  }
  if (!fin.empty()) prog.phases.push_back(std::move(fin));
  return prog;
}

}  // namespace

std::vector<sim::slot> destination_tables(const cube::PartitionSpec& before,
                                          const cube::PartitionSpec& after) {
  const cube::MatrixShape shape = before.shape();
  const word L = before.local_elements();
  std::vector<sim::slot> dst(static_cast<std::size_t>(before.processors() * L));
  std::size_t k = 0;
  for (word x = 0; x < before.processors(); ++x)
    for (word s = 0; s < L; ++s)
      dst[k++] = after.local_of(cube::transpose_address(shape, before.element_at(x, s)));
  return dst;
}

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
      before, after, B,
      [n](word x) {
        return std::vector<std::vector<int>>{topo::mpt_path(x, n, 0)};
      },
      [n](word x) { return topo::mpt_paths(x, n); }, opt, "spt");
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
      before, after, B,
      [n](word x) {
        const int h = topo::transpose_h(x, n);
        return std::vector<std::vector<int>>{topo::mpt_path(x, n, 0),
                                             topo::mpt_path(x, n, h)};
      },
      [n](word x) { return topo::mpt_paths(x, n); }, opt, "dpt");
}

sim::Program transpose_mpt(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                           const sim::MachineParams& machine, Transpose2DOptions opt) {
  const int n = before.processor_bits();
  const word L = before.local_elements();
  // One packet size for every node, sized for the worst case H = n/2:
  // smaller-H nodes deal more packets over their 2H(x) paths, still
  // round-robin and wave-aligned.
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
  return pipelined_transpose(
      before, after, B, [n](word x) { return topo::mpt_paths(x, n); }, {}, opt, "mpt");
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
