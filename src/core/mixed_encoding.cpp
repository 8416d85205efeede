#include "core/mixed_encoding.hpp"

#include <algorithm>
#include <cassert>

#include "comm/rearrange.hpp"
#include "cube/address.hpp"

namespace nct::core {

namespace {

std::function<Placement(word)> placement_in(const cube::PartitionSpec& spec) {
  return [&spec](word e) -> Placement {
    return Placement{spec.processor_of(e), spec.local_of(e)};
  };
}

std::function<Placement(word)> transposed_placement(const cube::MatrixShape shape,
                                                    const cube::PartitionSpec& after) {
  return [shape, &after](word e) -> Placement {
    const word wt = cube::transpose_address(shape, e);
    return Placement{after.processor_of(wt), after.local_of(wt)};
  };
}

/// Node memories of equal size as one flat image.
std::vector<word> flat_image(const sim::Memory& memory) {
  const std::size_t slots = memory.empty() ? 0 : memory.front().size();
  std::vector<word> image;
  image.reserve(memory.size() * slots);
  for (const auto& node : memory) {
    assert(node.size() == slots);
    image.insert(image.end(), node.begin(), node.end());
  }
  return image;
}

/// Concatenate programs (same n); local_slots becomes the maximum.
sim::Program concat(std::vector<sim::Program> programs) {
  sim::Program out;
  assert(!programs.empty());
  out.n = programs.front().n;
  out.local_slots = 0;
  for (auto& p : programs) {
    assert(p.n == out.n);
    out.local_slots = std::max(out.local_slots, p.local_slots);
    for (auto& ph : p.phases) out.phases.push_back(std::move(ph));
  }
  return out;
}

}  // namespace

sim::Program transpose_mixed_combined(const cube::PartitionSpec& before,
                                      const cube::PartitionSpec& after,
                                      const RouterOptions& options) {
  assert(after.shape() == before.shape().transposed());
  const int n = before.processor_bits();
  assert(n % 2 == 0 && n == after.processor_bits());
  const int half = n / 2;

  std::vector<std::vector<int>> schedule;
  for (int j = half - 1; j >= 0; --j) schedule.push_back({j + half, j});

  const word slots = before.local_elements();
  return route_elements(n, comm::spec_image(before, n, slots), slots,
                        transposed_placement(before.shape(), after), schedule, options,
                        "combined");
}

sim::Program transpose_mixed_naive(const cube::PartitionSpec& before,
                                   const cube::PartitionSpec& intermediate,
                                   const cube::PartitionSpec& after,
                                   const RouterOptions& options) {
  assert(before.shape() == intermediate.shape());
  assert(after.shape() == before.shape().transposed());
  assert(before.fields().size() == 2 && intermediate.fields().size() == 2);
  const int n = before.processor_bits();
  const int half = n / 2;
  assert(n % 2 == 0 && intermediate.processor_bits() == n);

  // Stage A: convert the row encoding (row field = high node bits,
  // dimensions half .. n-1), leaving columns as they were.
  const cube::PartitionSpec stage_a(
      before.shape(), {intermediate.fields()[0], before.fields()[1]});
  std::vector<std::vector<int>> row_dims, col_dims;
  for (int d = n - 1; d >= half; --d) row_dims.push_back({d});
  for (int d = half - 1; d >= 0; --d) col_dims.push_back({d});

  const auto init = comm::spec_memory(before, n, before.local_elements());
  auto prog_a = route_elements(n, flat_image(init), before.local_elements(),
                               placement_in(stage_a), row_dims, options, "naive-row-conv");
  auto mem_a = sim::apply_data(prog_a, sim::make_memory(init, word{1} << n,
                                                        prog_a.local_slots));

  // Stage B: convert the column encoding.
  auto prog_b = route_elements(n, flat_image(mem_a), prog_a.local_slots,
                               placement_in(intermediate), col_dims, options, "naive-col-conv");
  auto mem_b =
      sim::apply_data(prog_b, sim::make_memory(mem_a, word{1} << n, prog_b.local_slots));

  // Stage C: the node permutation is now tr(x); run the stepwise n-step
  // transpose sweep.
  std::vector<std::vector<int>> pair_schedule;
  for (int j = half - 1; j >= 0; --j) pair_schedule.push_back({j + half, j});
  auto prog_c = route_elements(n, flat_image(mem_b), prog_b.local_slots,
                               transposed_placement(before.shape(), after), pair_schedule,
                               options, "naive-transpose");

  return concat({std::move(prog_a), std::move(prog_b), std::move(prog_c)});
}

std::size_t routing_steps(const sim::Program& program) {
  std::size_t total = 0;
  for (const auto& phase : program.phases) {
    std::size_t longest = 0;
    for (const auto& op : phase.sends) longest = std::max(longest, op.route.size());
    total += longest;
  }
  return total;
}

}  // namespace nct::core
