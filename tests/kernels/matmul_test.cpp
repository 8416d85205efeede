// Hyper-systolic matmul: end-to-end data-placement verification on all
// four topologies, engine-path differential agreement, composition
// tuning, and seeded shape fuzzing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "kernels/matmul.hpp"
#include "kernels/tune.hpp"
#include "sim/engine.hpp"
#include "support/fuzz.hpp"

namespace nct::kernels {
namespace {

sim::MachineParams machine_for(const std::string& kind) {
  if (kind == "cube") return sim::MachineParams::ipsc(3);
  if (kind == "torus")
    return sim::MachineParams::on_topology(topo::torus_id({4, 2}), sim::MachineParams::ipsc(0));
  if (kind == "mesh")
    return sim::MachineParams::on_topology(topo::mesh_id({2, 2, 2}), sim::MachineParams::ipsc(0));
  // dragonfly D3(2, 2): 2*2*2 = 8 nodes.
  return sim::MachineParams::on_topology(topo::dragonfly_id(2, 2), sim::MachineParams::ipsc(0));
}

class HsmmTopologies : public ::testing::TestWithParam<const char*> {};

TEST_P(HsmmTopologies, PlacementAndValuesMatchTheHostOracle) {
  const sim::MachineParams machine = machine_for(GetParam());
  HsmmOptions opt;
  opt.nm = 16;  // p = 8, w = 2.
  HsmmKernel kernel(machine, opt);
  const PipelineResult result = kernel.pipeline().run(kernel.initial_memory());
  // Every stage's placement contract was verified inside run(); the exit
  // image must additionally match the kernel's composed contract.
  EXPECT_TRUE(sim::verify_memory(result.memory, kernel.final_memory()).ok);
  // C row-block x ends on node x: check every element id explicitly.
  const HsmmState& st = kernel.state();
  const word c_base = (st.K + 1) * st.e;
  for (word x = 0; x < st.p; ++x)
    for (word i = 0; i < st.w; ++i)
      for (word col = 0; col < st.nm; ++col)
        ASSERT_EQ(result.memory[x][c_base + i * st.nm + col],
                  2 * st.nm * st.nm + (x * st.w + i) * st.nm + col)
            << GetParam() << " node " << x;
  EXPECT_EQ(kernel.result(), kernel.reference()) << GetParam();
  EXPECT_GT(result.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, HsmmTopologies,
                         ::testing::Values("cube", "torus", "mesh", "dragonfly"));

TEST(Hsmm, AllThreeExecutionPathsAgreeBitIdentically) {
  const sim::MachineParams machine = machine_for("torus");
  HsmmOptions opt;
  opt.nm = 16;
  HsmmKernel kernel(machine, opt);
  const sim::Memory entry = kernel.initial_memory();

  PipelineOptions popt;
  popt.path = ExecPath::compiled;
  const PipelineResult compiled = kernel.pipeline().run(entry, popt);
  const std::vector<double> values = kernel.result();

  popt.path = ExecPath::timing;
  const PipelineResult timing = kernel.pipeline().run(entry, popt);
  popt.path = ExecPath::threads;
  const PipelineResult threads = kernel.pipeline().run(entry, popt);

  EXPECT_TRUE(sim::verify_memory(timing.memory, compiled.memory).ok);
  EXPECT_TRUE(sim::verify_memory(threads.memory, compiled.memory).ok);
  EXPECT_EQ(timing.seconds, compiled.seconds);
  // Each run recomputed the same product.
  EXPECT_EQ(kernel.result(), values);
  EXPECT_EQ(kernel.result(), kernel.reference());
}

TEST(Hsmm, ExplicitBundleChangesTheScheduleNotTheProduct) {
  const sim::MachineParams machine = machine_for("cube");
  for (const word bundle : {word{1}, word{2}, word{4}, word{8}}) {
    HsmmOptions opt;
    opt.nm = 16;
    opt.bundle = bundle;
    HsmmKernel kernel(machine, opt);
    const PipelineResult result = kernel.pipeline().run(kernel.initial_memory());
    EXPECT_TRUE(sim::verify_memory(result.memory, kernel.final_memory()).ok) << bundle;
    EXPECT_EQ(kernel.result(), kernel.reference()) << "K=" << bundle;
  }
}

TEST(Hsmm, TunedCompositionBeatsNaiveAndStillVerifies) {
  const sim::MachineParams machine = machine_for("cube");
  HsmmOptions opt;
  opt.nm = 32;
  HsmmKernel kernel(machine, opt);
  tune::PlanCache cache;
  KernelTuneOptions topt;
  topt.cache = &cache;
  const TunedComposition tuned = tune_pipeline(kernel.pipeline(), kernel.initial_memory(), topt);
  ASSERT_FALSE(tuned.stages.empty());
  EXPECT_LE(tuned.tuned_seconds, tuned.naive_seconds);
  // On the start-up-dominated iPSC the exchange/packet plans must beat
  // one-routed-message-per-pair somewhere in the composition.
  EXPECT_LT(tuned.tuned_seconds, tuned.naive_seconds);

  PipelineOptions popt;
  popt.composition = tuned.composition;
  const PipelineResult result = kernel.pipeline().run(kernel.initial_memory(), popt);
  EXPECT_TRUE(sim::verify_memory(result.memory, kernel.final_memory()).ok);
  EXPECT_EQ(kernel.result(), kernel.reference());
  EXPECT_DOUBLE_EQ(result.seconds, tuned.tuned_seconds);

  // Second tuning run: every stage resolves from the cache with the same
  // composition.
  const TunedComposition again = tune_pipeline(kernel.pipeline(), kernel.initial_memory(), topt);
  ASSERT_EQ(again.stages.size(), tuned.stages.size());
  for (std::size_t i = 0; i < again.stages.size(); ++i) {
    EXPECT_TRUE(again.stages[i].from_cache) << again.stages[i].name;
    EXPECT_EQ(again.stages[i].candidate, tuned.stages[i].candidate);
  }
}

TEST(HsmmFuzz, RandomShapesBundlesAndTopologiesVerifyEndToEnd) {
  const unsigned seed = fuzz::fuzz_seed(20260808u);
  std::mt19937 rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    sim::MachineParams machine;
    switch (rng() % 3) {
      case 0: machine = sim::MachineParams::ipsc(2 + static_cast<int>(rng() % 2)); break;
      case 1:
        machine = sim::MachineParams::on_topology(
            topo::torus_id({2 + static_cast<int>(rng() % 3), 2}), sim::MachineParams::ipsc(0));
        break;
      default:
        machine = sim::MachineParams::on_topology(
            topo::mesh_id({2, 2 + static_cast<int>(rng() % 3)}), sim::MachineParams::ipsc(0));
        break;
    }
    const word p = machine.nodes();
    HsmmOptions opt;
    opt.nm = p * (1 + rng() % 3);
    opt.bundle = rng() % (p + 1);  // 0 = default sqrt bundle.
    opt.seed = rng();
    HsmmKernel kernel(machine, opt);
    PipelineOptions popt;
    popt.path = (trial % 2 == 0) ? ExecPath::compiled : ExecPath::timing;
    const PipelineResult result = kernel.pipeline().run(kernel.initial_memory(), popt);
    ASSERT_TRUE(sim::verify_memory(result.memory, kernel.final_memory()).ok)
        << "NCT_FUZZ_SEED=" << seed << " trial " << trial << " " << kernel.signature();
    ASSERT_EQ(kernel.result(), kernel.reference())
        << "NCT_FUZZ_SEED=" << seed << " trial " << trial << " " << kernel.signature();
  }
}

}  // namespace
}  // namespace nct::kernels
