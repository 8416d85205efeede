// Randomized shard-invariance sweep: random transposes on random
// machine models (and random transient fault sets) must time out
// bit-identically at every shard count.  Seeded from NCT_FUZZ_SEED when
// set; the seed is embedded in every assertion message so a failure is
// reproducible with `NCT_FUZZ_SEED=<seed> ctest -R ShardFuzz`.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "fault/fault.hpp"
#include "shard/engine.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "support/fuzz.hpp"
#include "topology/partition.hpp"
#include "topology/routed.hpp"
#include "topology/topology.hpp"

namespace nct {
namespace {

using cube::MatrixShape;
using cube::PartitionSpec;
using cube::word;

/// The sweeps' seed unless NCT_FUZZ_SEED overrides it.
constexpr unsigned kFuzzSeed = 20260808u;

sim::MachineParams random_machine(std::mt19937& rng, int n) {
  sim::MachineParams m = sim::MachineParams::nport(
      n, std::uniform_real_distribution<double>(0.25, 2.0)(rng),
      std::uniform_real_distribution<double>(0.05, 1.0)(rng));
  m.tcopy = std::uniform_real_distribution<double>(0.0, 0.5)(rng);
  m.element_bytes = std::uniform_int_distribution<int>(1, 8)(rng);
  if (std::uniform_int_distribution<int>(0, 1)(rng))
    m.port = sim::PortModel::one_port;
  if (std::uniform_int_distribution<int>(0, 1)(rng))
    m.switching = sim::Switching::cut_through;
  if (std::uniform_int_distribution<int>(0, 3)(rng) == 0) m.max_packet_bytes = 16;
  return m;
}

void expect_exact(const sim::RunResult& a, const sim::RunResult& b,
                  const std::string& what) {
  ASSERT_EQ(a.total_time, b.total_time) << what;
  ASSERT_EQ(a.total_copy_time, b.total_copy_time) << what;
  ASSERT_EQ(a.max_link_busy, b.max_link_busy) << what;
  ASSERT_EQ(a.total_retries, b.total_retries) << what;
  ASSERT_EQ(a.total_fault_wait, b.total_fault_wait) << what;
  ASSERT_EQ(a.phases.size(), b.phases.size()) << what;
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    ASSERT_EQ(a.phases[i].start, b.phases[i].start) << what << " phase " << i;
    ASSERT_EQ(a.phases[i].end, b.phases[i].end) << what << " phase " << i;
  }
}

TEST(ShardFuzz, RandomTransposesInvariantAcrossShardCounts) {
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed);
  std::mt19937 rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = std::uniform_int_distribution<int>(2, 6)(rng);
    const sim::MachineParams m = random_machine(rng, n);
    const int half = n / 2;
    const MatrixShape s{half + 1, n - half + 1};
    const auto before = PartitionSpec::two_dim_cyclic(s, half, n - half);
    const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), n - half, half);
    const auto plan = core::plan_transpose(before, after, m);
    const auto compiled = sim::compile(plan.program, m);
    const std::string what = "seed=" + std::to_string(seed) + " trial=" +
                             std::to_string(trial) + " n=" + std::to_string(n) + " " +
                             plan.algorithm;

    const auto serial = sim::Engine(m).run_timing(compiled);
    const auto topology = topo::make_topology(m.topology, m.n);
    const shard::ShardEngine sharded(m);
    shard::ShardScratch scratch;
    for (const std::uint32_t shards : {2u, 3u, 4u, 8u}) {
      sim::RunResult out;
      sharded.run_timing(compiled, topo::make_partition(*topology, shards), scratch, out);
      expect_exact(serial, out, what + " shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardFuzz, RandomFaultedRunsInvariant) {
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed) + 7;
  std::mt19937 rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = std::uniform_int_distribution<int>(3, 5)(rng);
    sim::MachineParams m = random_machine(rng, n);
    m.switching = sim::Switching::store_and_forward;  // faults gate hops
    const int half = n / 2;
    const MatrixShape s{half + 1, n - half + 1};
    const auto before = PartitionSpec::two_dim_cyclic(s, half, n - half);
    const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), n - half, half);
    const auto plan = core::plan_transpose(before, after, m);
    const auto compiled = sim::compile(plan.program, m);

    const auto healthy = sim::Engine(m).run_timing(compiled);
    const fault::FaultModel model(
        n, fuzz::random_transient_spec(rng, n, std::max(1.0, healthy.total_time), 3,
                                   {fuzz::Outage::degrade, fuzz::Outage::link}));
    sim::EngineOptions opts;
    opts.faults = &model;
    const auto serial = sim::Engine(m, opts).run_timing(compiled);

    const std::string what = "seed=" + std::to_string(seed) + " trial=" +
                             std::to_string(trial) + " n=" + std::to_string(n);
    const auto topology = topo::make_topology(m.topology, m.n);
    const shard::ShardEngine sharded(m, opts);
    shard::ShardScratch scratch;
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      sim::RunResult out;
      sharded.run_timing(compiled, topo::make_partition(*topology, shards), scratch, out);
      expect_exact(serial, out, what + " shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardFuzz, RandomRoutedPermutationsInvariant) {
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed) + 31;
  std::mt19937 rng(seed);
  const topo::TopologyId ids[] = {topo::torus_id({4, 4}), topo::mesh_id({3, 5}),
                                  topo::dragonfly_id(3, 2)};
  for (int trial = 0; trial < 9; ++trial) {
    const auto& id = ids[static_cast<std::size_t>(trial) % 3];
    const auto t = topo::make_topology(id, 0);
    std::vector<word> dest(static_cast<std::size_t>(t->nodes()));
    for (word x = 0; x < t->nodes(); ++x) dest[static_cast<std::size_t>(x)] = x;
    std::shuffle(dest.begin(), dest.end(), rng);
    const auto program = topo::plan_routed_permutation(*t, dest, 2);
    sim::MachineParams m =
        sim::MachineParams::on_topology(id, sim::MachineParams::ipsc(0));
    if (trial % 2) m.port = sim::PortModel::one_port;
    const auto compiled = sim::compile(program, m);

    const auto serial = sim::Engine(m).run_timing(compiled);
    const std::string what =
        "seed=" + std::to_string(seed) + " trial=" + std::to_string(trial) + " " + t->name();
    const shard::ShardEngine sharded(m);
    shard::ShardScratch scratch;
    for (const std::uint32_t shards : {2u, 3u, 5u}) {
      sim::RunResult out;
      sharded.run_timing(compiled, topo::make_partition(*t, shards), scratch, out);
      expect_exact(serial, out, what + " shards=" + std::to_string(shards));
    }
  }
}

}  // namespace
}  // namespace nct
