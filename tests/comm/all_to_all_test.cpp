#include "comm/all_to_all.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "sim/engine.hpp"

namespace nct::comm {
namespace {

struct Case {
  int n;
  word k;
};

/// Names each case `n<n>_k<k>`: without it gtest prints the raw bytes,
/// padding included, and the test names change from build to build.
void PrintTo(const Case& c, std::ostream* os) { *os << "n" << c.n << "_k" << c.k; }

class AllToAll : public ::testing::TestWithParam<Case> {};

sim::MachineParams machine(int n, sim::PortModel port) {
  auto m = sim::MachineParams::nport(n, 1.0, 0.125);
  m.port = port;
  return m;
}

TEST_P(AllToAll, ExchangeCorrect) {
  const auto [n, k] = GetParam();
  const auto prog = all_to_all_exchange(n, k);
  const auto res = sim::Engine(machine(n, sim::PortModel::one_port))
                       .run(prog, all_to_all_initial_memory(n, k));
  const auto v = sim::verify_memory(res.memory, all_to_all_expected_memory(n, k));
  EXPECT_TRUE(v.ok) << v.message;
}

TEST_P(AllToAll, SbntCorrect) {
  const auto [n, k] = GetParam();
  const auto prog = all_to_all_sbnt(n, k);
  const auto res = sim::Engine(machine(n, sim::PortModel::n_port))
                       .run(prog, all_to_all_initial_memory(n, k));
  const auto v = sim::verify_memory(res.memory, all_to_all_expected_memory(n, k));
  EXPECT_TRUE(v.ok) << v.message;
}

TEST_P(AllToAll, DirectCorrect) {
  const auto [n, k] = GetParam();
  const auto prog = all_to_all_direct(n, k);
  const auto res = sim::Engine(machine(n, sim::PortModel::one_port))
                       .run(prog, all_to_all_initial_memory(n, k));
  const auto v = sim::verify_memory(res.memory, all_to_all_expected_memory(n, k));
  EXPECT_TRUE(v.ok) << v.message;
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllToAll,
                         ::testing::Values(Case{1, 1}, Case{1, 4}, Case{2, 2}, Case{3, 2},
                                           Case{4, 1}, Case{4, 4}, Case{5, 2}, Case{6, 1}));

TEST(AllToAllExchange, PhaseCountIsN) {
  const auto prog = all_to_all_exchange(4, 2);
  EXPECT_EQ(prog.phases.size(), 4U);
}

TEST(AllToAllExchange, TimeMatchesFormulaWithLargePackets) {
  // T_min = n (PQ/(2N) tc + tau) for B_m >= PQ/2N, one exchange of
  // PQ/2N elements per step (Section 3.2).  Here PQ/N = N*K elements.
  const int n = 4;
  const word K = 4;
  auto m = machine(n, sim::PortModel::one_port);
  m.element_bytes = 1;
  const auto prog = all_to_all_exchange(n, K, BufferPolicy::buffered());
  const auto res = sim::Engine(m).run(prog, all_to_all_initial_memory(n, K));
  const double local = static_cast<double>((word{1} << n) * K);
  // Buffered gathers cost tcopy, which is 0 in this machine.
  const double expected = n * (local / 2.0 * m.tc + m.tau);
  EXPECT_NEAR(res.total_time, expected, 1e-9);
}

TEST(AllToAllExchange, ExchangedVolumeConstantPerStep) {
  const int n = 4;
  const word K = 2;
  const auto prog = all_to_all_exchange(n, K);
  const word N = word{1} << n;
  for (const auto& phase : prog.phases) {
    std::size_t elems = 0;
    for (const auto& op : phase.sends) elems += op.elements();
    // Every node exchanges half its local data each step.
    EXPECT_EQ(elems, static_cast<std::size_t>(N * (N * K / 2)));
  }
}

TEST(AllToAllExchange, UnbufferedBlockCountDoubles) {
  // Step j partitions the local array into twice as many blocks as step
  // j-1 (Section 3.2 / 8.1): message counts per node are 1, 2, 4, ...
  const int n = 4;
  const word K = 2;
  const auto prog = all_to_all_exchange(n, K, BufferPolicy::unbuffered());
  const word N = word{1} << n;
  ASSERT_EQ(prog.phases.size(), 4U);
  for (std::size_t t = 0; t < prog.phases.size(); ++t) {
    EXPECT_EQ(prog.phases[t].sends.size(),
              static_cast<std::size_t>(N) * (std::size_t{1} << t))
        << "phase " << t;
  }
}

TEST(AllToAllExchange, BufferedBeatsUnbufferedWhenStartupsDominate) {
  const int n = 5;
  const word K = 2;
  auto m = machine(n, sim::PortModel::one_port);
  m.tau = 10.0;
  m.tcopy = 0.01;
  const auto unbuf = sim::Engine(m).run(all_to_all_exchange(n, K, BufferPolicy::unbuffered()),
                                        all_to_all_initial_memory(n, K));
  const auto buf = sim::Engine(m).run(all_to_all_exchange(n, K, BufferPolicy::buffered()),
                                      all_to_all_initial_memory(n, K));
  EXPECT_LT(buf.total_time, unbuf.total_time);
}

TEST(AllToAllExchange, UnbufferedBeatsBufferedWhenCopiesDominate) {
  const int n = 5;
  const word K = 64;
  auto m = machine(n, sim::PortModel::one_port);
  m.tau = 1e-6;
  m.tcopy = 1.0;
  const auto unbuf = sim::Engine(m).run(all_to_all_exchange(n, K, BufferPolicy::unbuffered()),
                                        all_to_all_initial_memory(n, K));
  const auto buf = sim::Engine(m).run(all_to_all_exchange(n, K, BufferPolicy::buffered()),
                                      all_to_all_initial_memory(n, K));
  EXPECT_LT(unbuf.total_time, buf.total_time);
}

TEST(AllToAllSbnt, NPortBeatsExchangeForLargeData) {
  // T_min(SBnT, n-port) = PQ/2N tc + n tau vs n(PQ/2N tc + tau): the
  // transfer term loses its factor n.
  const int n = 5;
  const word K = 32;
  auto m = machine(n, sim::PortModel::n_port);
  m.tau = 1e-4;
  const auto ex = sim::Engine(m).run(all_to_all_exchange(n, K),
                                     all_to_all_initial_memory(n, K));
  const auto sb = sim::Engine(m).run(all_to_all_sbnt(n, K), all_to_all_initial_memory(n, K));
  EXPECT_LT(sb.total_time, ex.total_time);
}

TEST(AllToAllDirect, SlowerThanExchangeOnOnePortWithStartups) {
  // The iPSC router baseline: N-1 messages per node instead of n.
  const int n = 5;
  const word K = 1;
  auto m = machine(n, sim::PortModel::one_port);
  m.tau = 5.0;
  const auto ex = sim::Engine(m).run(all_to_all_exchange(n, K),
                                     all_to_all_initial_memory(n, K));
  const auto di = sim::Engine(m).run(all_to_all_direct(n, K),
                                     all_to_all_initial_memory(n, K));
  EXPECT_LT(ex.total_time, di.total_time);
}

TEST(AllToAll, LowerBoundHalfLocalPerStepRespected) {
  // Theorem-3-style transfer bound: each node must move (N-1)/N of its
  // local data; with one port that serialises on the node's port.
  const int n = 3;
  const word K = 8;
  auto m = machine(n, sim::PortModel::one_port);
  m.element_bytes = 1;
  const auto res = sim::Engine(m).run(all_to_all_exchange(n, K),
                                      all_to_all_initial_memory(n, K));
  const double local = static_cast<double>((word{1} << n) * K);
  EXPECT_GE(res.total_time + 1e-12, n * local / 2.0 * m.tc);
}

}  // namespace
}  // namespace nct::comm
