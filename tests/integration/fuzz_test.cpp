// Property-based sweeps: random binary partition specs, random
// conversions and transposes, checked end to end against the exact
// expected distributions, plus engine-level conservation invariants.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>
#include <utility>

#include "comm/rearrange.hpp"
#include "core/api.hpp"
#include "core/transpose1d.hpp"
#include "core/transpose2d.hpp"
#include "fault/fault.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/engine.hpp"
#include "support/fuzz.hpp"

namespace nct {
namespace {

using cube::MatrixShape;
using cube::PartitionSpec;
using cube::word;

/// A random binary spec: a random subset of the address dimensions,
/// grouped into contiguous fields, in random processor-bit order.
PartitionSpec random_spec(std::mt19937& rng, MatrixShape s, int max_rp) {
  const int m = s.m();
  std::vector<int> dims(static_cast<std::size_t>(m));
  std::iota(dims.begin(), dims.end(), 0);
  std::shuffle(dims.begin(), dims.end(), rng);
  const int rp = std::uniform_int_distribution<int>(0, max_rp)(rng);
  std::vector<bool> real(static_cast<std::size_t>(m), false);
  for (int i = 0; i < rp; ++i) real[static_cast<std::size_t>(dims[static_cast<std::size_t>(i)])] = true;
  // Group contiguous runs into fields.
  std::vector<cube::Field> fields;
  int d = 0;
  while (d < m) {
    if (!real[static_cast<std::size_t>(d)]) {
      ++d;
      continue;
    }
    int e = d;
    while (e < m && real[static_cast<std::size_t>(e)]) ++e;
    fields.push_back(cube::Field{d, e - d, cube::Encoding::binary});
    d = e;
  }
  std::shuffle(fields.begin(), fields.end(), rng);
  return PartitionSpec(s, std::move(fields));
}

sim::MachineParams machine(int n) {
  auto m = sim::MachineParams::nport(n, 1.0, 0.25);
  m.port = sim::PortModel::one_port;
  return m;
}

class FuzzConversions : public ::testing::TestWithParam<int> {};

TEST_P(FuzzConversions, RandomStorageConversionsAreExact) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const int p = std::uniform_int_distribution<int>(1, 4)(rng);
    const int q = std::uniform_int_distribution<int>(1, 4)(rng);
    const MatrixShape s{p, q};
    const int n = std::min(4, s.m());
    const auto before = random_spec(rng, s, n);
    const auto after = random_spec(rng, s, n);
    const auto prog = comm::convert_storage(before, after, n);
    const auto init = comm::spec_memory(before, n, prog.local_slots);
    const auto res = sim::Engine(machine(n)).run(prog, init);
    const auto expected = comm::spec_memory(after, n, prog.local_slots);
    const auto v = sim::verify_memory(res.memory, expected);
    ASSERT_TRUE(v.ok) << before.describe() << " -> " << after.describe() << ": "
                      << v.message;
  }
}

TEST_P(FuzzConversions, RandomTransposesAreExact) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1000);
  for (int trial = 0; trial < 20; ++trial) {
    const int p = std::uniform_int_distribution<int>(1, 4)(rng);
    const int q = std::uniform_int_distribution<int>(1, 4)(rng);
    const MatrixShape s{p, q};
    const int n = std::min(4, s.m());
    const auto before = random_spec(rng, s, n);
    const auto after = random_spec(rng, s.transposed(), n);
    const auto prog = core::transpose_general(before, after, n);
    const auto init = core::transpose_initial_memory(before, n, prog.local_slots);
    const auto res = sim::Engine(machine(n)).run(prog, init);
    const auto expected = core::transpose_expected_memory(s, after, n, prog.local_slots);
    const auto v = sim::verify_memory(res.memory, expected);
    ASSERT_TRUE(v.ok) << before.describe() << " ->T " << after.describe() << ": "
                      << v.message;
  }
}

TEST_P(FuzzConversions, BufferPoliciesNeverChangeData) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 2000);
  for (int trial = 0; trial < 10; ++trial) {
    const MatrixShape s{3, 3};
    const int n = 3;
    const auto before = random_spec(rng, s, n);
    const auto after = random_spec(rng, s, n);
    sim::Memory reference;
    bool first = true;
    for (const auto& policy :
         {comm::BufferPolicy::unbuffered(), comm::BufferPolicy::buffered(),
          comm::BufferPolicy::optimal(2), comm::BufferPolicy::optimal(64)}) {
      comm::RearrangeOptions opt;
      opt.policy = policy;
      const auto prog = comm::convert_storage(before, after, n, opt);
      const auto init = comm::spec_memory(before, n, prog.local_slots);
      const auto res = sim::Engine(machine(n)).run(prog, init);
      if (first) {
        reference = res.memory;
        first = false;
      } else {
        ASSERT_TRUE(sim::verify_memory(res.memory, reference).ok);
      }
    }
  }
}

TEST_P(FuzzConversions, ThreadsMatchSimulatorOnRandomPrograms) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 3000);
  for (int trial = 0; trial < 6; ++trial) {
    const MatrixShape s{3, 3};
    const int n = 3;
    const auto before = random_spec(rng, s, n);
    const auto after = random_spec(rng, s, n);
    const auto prog = comm::convert_storage(before, after, n);
    const auto init = comm::spec_memory(before, n, prog.local_slots);
    const auto sim_mem = sim::Engine(machine(n)).run(prog, init).memory;
    const auto thr_mem = runtime::execute_program_threads(prog, init);
    ASSERT_TRUE(sim::verify_memory(thr_mem, sim_mem).ok);
  }
}

TEST_P(FuzzConversions, ThreadsMatchSimulatorOnRandomTransposes) {
  // Runtime differential: the threaded executor and the simulator must
  // agree on the final memory image for general transpose programs, not
  // just storage conversions.
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 4000);
  for (int trial = 0; trial < 6; ++trial) {
    const int p = std::uniform_int_distribution<int>(1, 4)(rng);
    const int q = std::uniform_int_distribution<int>(1, 4)(rng);
    const MatrixShape s{p, q};
    const int n = std::min(4, s.m());
    const auto before = random_spec(rng, s, n);
    const auto after = random_spec(rng, s.transposed(), n);
    const auto prog = core::transpose_general(before, after, n);
    const auto init = core::transpose_initial_memory(before, n, prog.local_slots);
    const auto sim_mem = sim::Engine(machine(n)).run(prog, init).memory;
    const auto thr_mem = runtime::execute_program_threads(prog, init);
    ASSERT_TRUE(sim::verify_memory(thr_mem, sim_mem).ok)
        << before.describe() << " ->T " << after.describe();
  }
}

TEST(RuntimeDifferential, ThreadsMatchSimulatorOnEveryTwoDimPlanner) {
  // Every exchange-class 2D transpose planner, executed by real threads,
  // must land on the simulator's final memory (and on the exact expected
  // transposed distribution).
  const int n = 4, half = 2;
  const MatrixShape s{3, 3};
  const auto m = machine(n);
  struct Planner {
    const char* name;
    sim::Program (*plan)(const PartitionSpec&, const PartitionSpec&,
                         const sim::MachineParams&, core::Transpose2DOptions);
    bool cyclic;
  };
  const Planner planners[] = {
      {"spt", core::transpose_spt, true},
      {"dpt", core::transpose_dpt, true},
      {"mpt", core::transpose_mpt, true},
      {"stepwise", core::transpose_2d_stepwise, false},
      {"direct", core::transpose_2d_direct, false},
  };
  for (const Planner& pl : planners) {
    const auto before = pl.cyclic ? PartitionSpec::two_dim_cyclic(s, half, half)
                                  : PartitionSpec::two_dim_consecutive(s, half, half);
    const auto after = pl.cyclic
                           ? PartitionSpec::two_dim_cyclic(s.transposed(), half, half)
                           : PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
    const auto prog = pl.plan(before, after, m, {});
    const auto init = core::transpose_initial_memory(before, n, prog.local_slots);
    const auto sim_mem = sim::Engine(m).run(prog, init).memory;
    const auto thr_mem = runtime::execute_program_threads(prog, init);
    ASSERT_TRUE(sim::verify_memory(thr_mem, sim_mem).ok) << pl.name;
    const auto expected =
        core::transpose_expected_memory(s, after, n, prog.local_slots);
    ASSERT_TRUE(sim::verify_memory(sim_mem, expected).ok) << pl.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzConversions, ::testing::Values(1, 2, 3, 4, 5));

// ---- randomized fault robustness -------------------------------------
//
// Seeded from NCT_FUZZ_SEED when set (so CI can pin or rotate the seed);
// the seed is embedded in every assertion message so a failure is
// reproducible with `NCT_FUZZ_SEED=<seed> ctest -R FaultRobustness`.

/// Used when NCT_FUZZ_SEED is unset.
constexpr unsigned kFuzzSeed = 20260806u;

TEST(FaultRobustness, RandomTransientFaultsDelayButNeverChangeData) {
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed);
  std::mt19937 rng(seed);
  const int n = 4, half = 2;
  const MatrixShape s{3, 3};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = machine(n);
  const decltype(&core::transpose_mpt) planners[] = {
      core::transpose_spt, core::transpose_dpt, core::transpose_mpt};
  for (int trial = 0; trial < 20; ++trial) {
    const auto prog = planners[trial % 3](before, after, m, {});
    const auto init = core::transpose_initial_memory(before, n, prog.local_slots);
    const auto healthy = sim::Engine(m).run(prog, init);
    const fault::FaultModel fm(
        n, fuzz::random_transient_spec(
               rng, n, healthy.total_time * 2, 4,
               {fuzz::Outage::link, fuzz::Outage::node, fuzz::Outage::degrade}));
    sim::EngineOptions opt;
    opt.faults = &fm;
    const auto res = sim::Engine(m, opt).run(prog, init);
    ASSERT_TRUE(sim::verify_memory(res.memory, healthy.memory).ok)
        << "NCT_FUZZ_SEED=" << seed << " trial " << trial;
    ASSERT_GE(res.total_time, healthy.total_time)
        << "NCT_FUZZ_SEED=" << seed << " trial " << trial;
  }
}

TEST(FaultRobustness, RandomPermanentCutsRerouteAndDeliver) {
  // Up to n-1 permanently cut wires keep the cube connected (edge
  // connectivity n), so the failure-aware planners must always find
  // working routes and land the exact transposed distribution.
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed);
  std::mt19937 rng(seed + 1);
  const int n = 4, half = 2;
  const MatrixShape s{3, 3};
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  const auto m = machine(n);
  std::uniform_int_distribution<word> node(0, (word{1} << n) - 1);
  std::uniform_int_distribution<int> dim(0, n - 1);
  for (int trial = 0; trial < 20; ++trial) {
    const int cuts = std::uniform_int_distribution<int>(1, n - 1)(rng);
    std::set<std::pair<word, int>> wires;
    while (static_cast<int>(wires.size()) < cuts) {
      const word x = node(rng);
      const int d = dim(rng);
      wires.insert({std::min(x, cube::flip_bit(x, d)), d});
    }
    fault::FaultSpec spec;
    for (const auto& [x, d] : wires) spec.fail_link(x, d);
    const fault::FaultModel fm(n, spec);
    core::Transpose2DOptions topt;
    topt.faults = &fm;
    const auto prog = trial % 2 == 0 ? core::transpose_mpt(before, after, m, topt)
                                     : core::transpose_spt(before, after, m, topt);
    const auto init = core::transpose_initial_memory(before, n, prog.local_slots);
    sim::EngineOptions opt;
    opt.faults = &fm;
    const auto res = sim::Engine(m, opt).run(prog, init);
    const auto expected = core::transpose_expected_memory(s, after, n, prog.local_slots);
    ASSERT_TRUE(sim::verify_memory(res.memory, expected).ok)
        << "NCT_FUZZ_SEED=" << seed << " trial " << trial << " cuts " << cuts;
  }
}

TEST(FaultRobustness, ThreadsMaskTransientFaultsAndMatchTheSimulator) {
  // Real threads under transient link refusals: retry with backoff until
  // the refusal budget drains, then the memory image must still match a
  // healthy simulator run exactly.
  const unsigned seed = fuzz::fuzz_seed(kFuzzSeed);
  std::mt19937 rng(seed + 2);
  const int n = 3;
  const MatrixShape s{3, 3};
  std::uniform_int_distribution<word> node(0, (word{1} << n) - 1);
  std::uniform_int_distribution<int> dim(0, n - 1);
  for (int trial = 0; trial < 6; ++trial) {
    const auto before = random_spec(rng, s, n);
    const auto after = random_spec(rng, s, n);
    const auto prog = comm::convert_storage(before, after, n);
    const auto init = comm::spec_memory(before, n, prog.local_slots);
    const auto sim_mem = sim::Engine(machine(n)).run(prog, init).memory;

    fault::FaultSpec spec;
    const int entries = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int i = 0; i < entries; ++i)
      spec.fail_link(node(rng), dim(rng), {0.0, 1.0});
    runtime::FaultInjector inj(n, spec, /*refusals_per_window=*/2);
    const auto thr_mem = runtime::execute_program_threads(prog, init, inj);
    ASSERT_TRUE(sim::verify_memory(thr_mem, sim_mem).ok)
        << "NCT_FUZZ_SEED=" << seed << " trial " << trial;
    ASSERT_EQ(inj.give_ups(), 0u) << "NCT_FUZZ_SEED=" << seed << " trial " << trial;
  }
}

TEST(EngineInvariants, ElementConservation) {
  // Any conversion conserves the multiset of payloads.
  std::mt19937 rng(99);
  const MatrixShape s{4, 3};
  const int n = 4;
  for (int trial = 0; trial < 10; ++trial) {
    const auto before = random_spec(rng, s, n);
    const auto after = random_spec(rng, s, n);
    const auto prog = comm::convert_storage(before, after, n);
    const auto init = comm::spec_memory(before, n, prog.local_slots);
    const auto res = sim::Engine(machine(n)).run(prog, init);
    std::multiset<word> in, out;
    for (const auto& node : init) {
      for (const word w : node) {
        if (w != sim::kEmptySlot) in.insert(w);
      }
    }
    for (const auto& node : res.memory) {
      for (const word w : node) {
        if (w != sim::kEmptySlot) out.insert(w);
      }
    }
    ASSERT_EQ(in, out);
  }
}

TEST(EngineInvariants, TimeIsNonDecreasingInVolume) {
  // More data through the same plan shape never gets cheaper.
  const int n = 3;
  double prev = 0.0;
  for (const int lg : {6, 8, 10, 12}) {
    const MatrixShape s{lg / 2, lg - lg / 2};
    const auto before = PartitionSpec::col_consecutive(s, 3);
    const auto after = PartitionSpec::col_cyclic(s, 3);
    const auto prog = comm::convert_storage(before, after, n);
    const auto init = comm::spec_memory(before, n, prog.local_slots);
    const auto res = sim::Engine(machine(n)).run(prog, init);
    EXPECT_GE(res.total_time, prev);
    prev = res.total_time;
  }
}

TEST(EngineInvariants, MoreStartupCostNeverReducesTime) {
  const MatrixShape s{4, 4};
  const int n = 3;
  const auto before = PartitionSpec::col_consecutive(s, 3);
  const auto after = PartitionSpec::col_cyclic(s, 3);
  const auto prog = comm::convert_storage(before, after, n);
  const auto init = comm::spec_memory(before, n, prog.local_slots);
  double prev = 0.0;
  for (const double tau : {0.1, 1.0, 10.0}) {
    auto m = machine(n);
    m.tau = tau;
    const auto res = sim::Engine(m).run(prog, init);
    EXPECT_GT(res.total_time, prev);
    prev = res.total_time;
  }
}

}  // namespace
}  // namespace nct
