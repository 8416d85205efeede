#include "comm/one_to_all.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "sim/engine.hpp"

namespace nct::comm {
namespace {

sim::MachineParams nport_machine(int n) { return sim::MachineParams::nport(n, 1.0, 0.25); }

sim::MachineParams oneport_machine(int n) {
  auto m = sim::MachineParams::nport(n, 1.0, 0.25);
  m.port = sim::PortModel::one_port;
  return m;
}

struct Case {
  int n;
  word k;
};

/// Names each case `n<n>_k<k>`: without it gtest prints the raw bytes,
/// padding included, and the test names change from build to build.
void PrintTo(const Case& c, std::ostream* os) { *os << "n" << c.n << "_k" << c.k; }

class OneToAll : public ::testing::TestWithParam<Case> {};

TEST_P(OneToAll, SbtDeliversAllBlocks) {
  const auto [n, k] = GetParam();
  const auto prog = one_to_all_sbt(n, k);
  const auto res = sim::Engine(oneport_machine(n)).run(prog, one_to_all_initial_memory(n, k));
  const auto v = sim::verify_memory(res.memory, one_to_all_expected_memory(n, k));
  EXPECT_TRUE(v.ok) << v.message;
}

TEST_P(OneToAll, SbntDeliversAllBlocks) {
  const auto [n, k] = GetParam();
  if (n < 1) GTEST_SKIP();
  const auto prog = one_to_all_sbnt(n, k);
  const auto res = sim::Engine(nport_machine(n)).run(prog, one_to_all_initial_memory(n, k));
  const auto v = sim::verify_memory(res.memory, one_to_all_expected_memory(n, k));
  EXPECT_TRUE(v.ok) << v.message;
}

TEST_P(OneToAll, RotatedSbtsDeliverAllBlocks) {
  const auto [n, k] = GetParam();
  if (n < 1) GTEST_SKIP();
  const auto prog = one_to_all_rotated_sbts(n, k);
  const auto res = sim::Engine(nport_machine(n)).run(prog, one_to_all_initial_memory(n, k));
  const auto v = sim::verify_memory(res.memory, one_to_all_expected_memory(n, k));
  EXPECT_TRUE(v.ok) << v.message;
}

INSTANTIATE_TEST_SUITE_P(Sizes, OneToAll,
                         ::testing::Values(Case{1, 1}, Case{2, 2}, Case{3, 4}, Case{4, 8},
                                           Case{5, 4}, Case{6, 2}, Case{3, 5}, Case{4, 3}));

TEST(OneToAllSbt, NonZeroRootAndRotation) {
  const int n = 4;
  const word k = 3;
  for (const word root : {word{0}, word{5}, word{15}}) {
    for (int rot = 0; rot < n; ++rot) {
      for (const bool refl : {false, true}) {
        const auto prog = one_to_all_sbt(n, k, root, rot, refl);
        const auto res = sim::Engine(oneport_machine(n))
                             .run(prog, one_to_all_initial_memory(n, k, root));
        const auto v = sim::verify_memory(res.memory, one_to_all_expected_memory(n, k, root));
        EXPECT_TRUE(v.ok) << "root=" << root << " rot=" << rot << " refl=" << refl << ": "
                          << v.message;
      }
    }
  }
}

TEST(OneToAllSbnt, NonZeroRoot) {
  const int n = 4;
  const word k = 2;
  const word root = 11;
  const auto prog = one_to_all_sbnt(n, k, root);
  const auto res =
      sim::Engine(nport_machine(n)).run(prog, one_to_all_initial_memory(n, k, root));
  const auto v = sim::verify_memory(res.memory, one_to_all_expected_memory(n, k, root));
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(OneToAllSbt, TimeMatchesFormulaWithLargePackets) {
  // T = (1 - 1/N) PQ tc + n tau for B_m >= PQ/2 (Section 3.1), with
  // PQ = N * K elements.
  const int n = 4;
  const word K = 8;
  auto m = oneport_machine(n);
  m.element_bytes = 1;  // so bytes == elements
  const auto prog = one_to_all_sbt(n, K);
  const auto res = sim::Engine(m).run(prog, one_to_all_initial_memory(n, K));
  const double PQ = static_cast<double>((word{1} << n) * K);
  const double expected = (1.0 - 1.0 / 16.0) * PQ * m.tc + n * m.tau;
  EXPECT_NEAR(res.total_time, expected, 1e-9);
}

TEST(OneToAllSbnt, NPortBeatsSbtOnTransferTime) {
  // With n-port communication the SBnT routing divides the root's load
  // over all n ports; for transfer-dominated sizes it beats the SBT.
  const int n = 5;
  const word K = 64;
  auto m = nport_machine(n);
  m.tau = 1e-3;  // transfer dominated
  const auto sbt = sim::Engine(m).run(one_to_all_sbt(n, K), one_to_all_initial_memory(n, K));
  const auto sbnt =
      sim::Engine(m).run(one_to_all_sbnt(n, K), one_to_all_initial_memory(n, K));
  EXPECT_LT(sbnt.total_time, sbt.total_time);
  // Speedup should approach n/2 (Section 3.1); allow a generous band.
  EXPECT_GT(sbt.total_time / sbnt.total_time, 1.5);
}

TEST(AllToOneSbt, GathersEverything) {
  const int n = 4;
  const word K = 3;
  const word N = word{1} << n;
  // Every node starts with its block in slots [0, K).
  sim::Memory init(static_cast<std::size_t>(N),
                   std::vector<word>(static_cast<std::size_t>(N * K), sim::kEmptySlot));
  for (word y = 0; y < N; ++y) {
    for (word k = 0; k < K; ++k) {
      init[static_cast<std::size_t>(y)][static_cast<std::size_t>(k)] = y * K + k;
    }
  }
  const auto prog = all_to_one_sbt(n, K);
  const auto res = sim::Engine(oneport_machine(n)).run(prog, init);
  // Root 0 ends with block y at slots [y*K, (y+1)*K).
  for (word y = 0; y < N; ++y) {
    for (word k = 0; k < K; ++k) {
      EXPECT_EQ(res.memory[0][static_cast<std::size_t>(y * K + k)], y * K + k);
    }
  }
}

TEST(OneToAll, LowerBoundRespected) {
  // T >= max((1 - 1/N) PQ tc, n tau) for one-port (Section 3.1).
  const int n = 4;
  const word K = 16;
  auto m = oneport_machine(n);
  m.element_bytes = 1;
  const auto res =
      sim::Engine(m).run(one_to_all_sbt(n, K), one_to_all_initial_memory(n, K));
  const double PQ = static_cast<double>((word{1} << n) * K);
  EXPECT_GE(res.total_time + 1e-12, (1.0 - 1.0 / 16.0) * PQ * m.tc);
  EXPECT_GE(res.total_time + 1e-12, n * m.tau);
}

}  // namespace
}  // namespace nct::comm
