#include "comm/broadcast.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "runtime/executor.hpp"
#include "sim/engine.hpp"

namespace nct::comm {
namespace {

sim::MachineParams one_port(int n) {
  auto m = sim::MachineParams::nport(n, 1.0, 0.25);
  m.port = sim::PortModel::one_port;
  m.element_bytes = 1;
  return m;
}

sim::MachineParams n_port(int n) {
  auto m = sim::MachineParams::nport(n, 1.0, 0.25);
  m.element_bytes = 1;
  return m;
}

struct Case {
  int n;
  word k;
};

/// Names each case `n<n>_k<k>`: without it gtest prints the raw bytes,
/// padding included, and the test names change from build to build.
void PrintTo(const Case& c, std::ostream* os) { *os << "n" << c.n << "_k" << c.k; }

class Broadcast : public ::testing::TestWithParam<Case> {};

TEST_P(Broadcast, SbtReachesEveryNode) {
  const auto [n, k] = GetParam();
  const auto prog = one_to_all_broadcast_sbt(n, k);
  const auto res = sim::Engine(one_port(n)).run(prog, broadcast_initial_memory(n, k));
  EXPECT_TRUE(sim::verify_memory(res.memory, broadcast_expected_memory(n, k)).ok);
}

TEST_P(Broadcast, SbtPipelinedPacketsReachEveryNode) {
  const auto [n, k] = GetParam();
  const word B = std::max<word>(1, k / 3);
  const auto prog = one_to_all_broadcast_sbt(n, k, B);
  const auto res = sim::Engine(one_port(n)).run(prog, broadcast_initial_memory(n, k));
  EXPECT_TRUE(sim::verify_memory(res.memory, broadcast_expected_memory(n, k)).ok);
}

TEST_P(Broadcast, RotatedTreesReachEveryNode) {
  const auto [n, k] = GetParam();
  if (n < 1) GTEST_SKIP();
  const auto prog = one_to_all_broadcast_rotated_sbts(n, k);
  const auto res = sim::Engine(n_port(n)).run(prog, broadcast_initial_memory(n, k));
  EXPECT_TRUE(sim::verify_memory(res.memory, broadcast_expected_memory(n, k)).ok);
}

TEST_P(Broadcast, GossipGathersEverything) {
  const auto [n, k] = GetParam();
  if (n < 1) GTEST_SKIP();
  const auto prog = all_to_all_broadcast(n, k);
  const auto res = sim::Engine(one_port(n)).run(prog, gossip_initial_memory(n, k));
  EXPECT_TRUE(sim::verify_memory(res.memory, gossip_expected_memory(n, k)).ok);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Broadcast,
                         ::testing::Values(Case{1, 1}, Case{2, 3}, Case{3, 8}, Case{4, 5},
                                           Case{5, 2}, Case{6, 4}));

TEST(Broadcast, PipelinedTimeMatchesFormula) {
  // T = (n + C - 1)(tau + B t_c) for C packets of B elements with n-port
  // communication (every node feeds all its children concurrently).
  const int n = 4;
  const word K = 12, B = 3;
  auto m = n_port(n);
  const auto prog = one_to_all_broadcast_sbt(n, K, B);
  const auto res = sim::Engine(m).run(prog, broadcast_initial_memory(n, K));
  const double C = 4.0;
  EXPECT_NEAR(res.total_time, (n + C - 1) * (m.tau + B * m.element_tc()), 1e-9);
}

TEST(Broadcast, GossipTimeMatchesFormula) {
  // T = (N-1) K t_c + n tau: volumes double every phase.
  const int n = 4;
  const word K = 8;
  auto m = one_port(n);
  const auto prog = all_to_all_broadcast(n, K);
  const auto res = sim::Engine(m).run(prog, gossip_initial_memory(n, K));
  EXPECT_NEAR(res.total_time,
              (static_cast<double>(word{1} << n) - 1) * K * m.element_tc() + n * m.tau,
              1e-9);
}

TEST(Broadcast, RotatedTreesBeatSingleTreeForLargeData) {
  const int n = 5;
  const word K = 640;
  auto m = n_port(n);
  m.tau = 1e-3;
  const auto single = sim::Engine(m).run(one_to_all_broadcast_sbt(n, K),
                                         broadcast_initial_memory(n, K));
  const auto rotated = sim::Engine(m).run(one_to_all_broadcast_rotated_sbts(n, K),
                                          broadcast_initial_memory(n, K));
  EXPECT_LT(rotated.total_time, single.total_time);
}

TEST(Broadcast, NonZeroRoot) {
  const int n = 4;
  const word K = 6, root = 9;
  const auto prog = one_to_all_broadcast_sbt(n, K, 2, root);
  const auto res =
      sim::Engine(one_port(n)).run(prog, broadcast_initial_memory(n, K, root));
  EXPECT_TRUE(sim::verify_memory(res.memory, broadcast_expected_memory(n, K)).ok);
}

TEST(Broadcast, ThreadsMatchSimulator) {
  const int n = 4;
  const word K = 5;
  const auto prog = one_to_all_broadcast_sbt(n, K, 2);
  const auto init = broadcast_initial_memory(n, K);
  const auto sim_mem = sim::Engine(one_port(n)).run(prog, init).memory;
  const auto thr_mem = runtime::execute_program_threads(prog, init);
  EXPECT_TRUE(sim::verify_memory(thr_mem, sim_mem).ok);

  const auto gossip = all_to_all_broadcast(3, 2);
  const auto ginit = gossip_initial_memory(3, 2);
  EXPECT_TRUE(sim::verify_memory(runtime::execute_program_threads(gossip, ginit),
                                 sim::Engine(one_port(3)).run(gossip, ginit).memory)
                  .ok);
}

TEST(Broadcast, KeepSourceSemantics) {
  // After a broadcast the root still holds its data (replication).
  const int n = 3;
  const word K = 4;
  const auto prog = one_to_all_broadcast_sbt(n, K);
  const auto res = sim::Engine(one_port(n)).run(prog, broadcast_initial_memory(n, K));
  for (word k = 0; k < K; ++k) EXPECT_EQ(res.memory[0][static_cast<std::size_t>(k)], k);
}

}  // namespace
}  // namespace nct::comm
