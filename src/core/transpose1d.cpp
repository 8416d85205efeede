#include "core/transpose1d.hpp"

#include <cassert>

#include "cube/address.hpp"

namespace nct::core {

sim::Program transpose_1d(const cube::PartitionSpec& before, const cube::PartitionSpec& after,
                          int machine_n, const comm::RearrangeOptions& options) {
  assert(after.shape() == before.shape().transposed());
  const word local_slots = std::max(before.local_elements(), after.local_elements());
  return comm::rearrange(machine_n, local_slots, comm::LocationMap::from_spec(before),
                         comm::transposed_goal(before.shape(), after), before.processors(),
                         before.local_elements(), options);
}

namespace {

std::vector<word> initial_from_spec(const cube::PartitionSpec& spec, int machine_n) {
  return comm::spec_image(spec, machine_n, spec.local_elements());
}

std::function<Placement(word)> transpose_dest(const cube::MatrixShape shape,
                                              const cube::PartitionSpec& after) {
  return [shape, &after](word e) -> Placement {
    const word wt = cube::transpose_address(shape, e);
    return Placement{after.processor_of(wt), after.local_of(wt)};
  };
}

}  // namespace

sim::Program transpose_1d_routed(const cube::PartitionSpec& before,
                                 const cube::PartitionSpec& after, int machine_n,
                                 const RouterOptions& options) {
  assert(after.shape() == before.shape().transposed());
  return route_elements(machine_n, initial_from_spec(before, machine_n),
                        before.local_elements(), transpose_dest(before.shape(), after),
                        per_dimension_schedule(machine_n), options, "transpose1d");
}

sim::Program transpose_1d_direct(const cube::PartitionSpec& before,
                                 const cube::PartitionSpec& after, int machine_n,
                                 const RouterOptions& options) {
  assert(after.shape() == before.shape().transposed());
  return route_direct(machine_n, initial_from_spec(before, machine_n), before.local_elements(),
                      transpose_dest(before.shape(), after), options);
}

sim::Memory transpose_initial_memory(const cube::PartitionSpec& before, int machine_n,
                                     word local_slots) {
  return comm::spec_memory(before, machine_n, local_slots);
}

sim::Memory transpose_expected_memory(const cube::MatrixShape& before_shape,
                                      const cube::PartitionSpec& after, int machine_n,
                                      word local_slots) {
  return comm::transposed_memory(before_shape, after, machine_n, local_slots);
}

}  // namespace nct::core
