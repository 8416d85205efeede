// Bit-packed Boolean matmul: placement + value verification across
// topologies, path agreement, and seeded fuzzing.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "kernels/boolmm.hpp"
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
    return sim::MachineParams::on_topology(topo::mesh_id({2, 4}), sim::MachineParams::ipsc(0));
  return sim::MachineParams::on_topology(topo::dragonfly_id(2, 2), sim::MachineParams::ipsc(0));
}

class BoolmmTopologies : public ::testing::TestWithParam<const char*> {};

TEST_P(BoolmmTopologies, PlacementAndValuesMatchTheHostOracle) {
  const sim::MachineParams machine = machine_for(GetParam());
  BoolmmOptions opt;
  opt.nb = 64;
  BoolmmKernel kernel(machine, opt);
  const PipelineResult result = kernel.pipeline().run(kernel.initial_memory());
  EXPECT_TRUE(sim::verify_memory(result.memory, kernel.final_memory()).ok);
  // Final C word ids: node j holds row-block j packed at the final area.
  const BoolmmState& st = kernel.state();
  const word final_base = 2 * st.rb * st.wb + st.nb * st.wb;
  for (word j = 0; j < st.p; ++j)
    for (word r2 = 0; r2 < st.rb; ++r2)
      for (word v = 0; v < st.wb; ++v)
        ASSERT_EQ(result.memory[j][final_base + r2 * st.wb + v],
                  2 * st.nb * st.wb + (j * st.rb + r2) * st.wb + v)
            << GetParam() << " node " << j;
  EXPECT_EQ(kernel.result(), kernel.reference()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, BoolmmTopologies,
                         ::testing::Values("cube", "torus", "mesh", "dragonfly"));

TEST(Boolmm, AllThreeExecutionPathsAgreeBitIdentically) {
  const sim::MachineParams machine = machine_for("cube");
  BoolmmOptions opt;
  opt.nb = 64;
  BoolmmKernel kernel(machine, opt);
  const sim::Memory entry = kernel.initial_memory();

  PipelineOptions popt;
  popt.path = ExecPath::compiled;
  const PipelineResult compiled = kernel.pipeline().run(entry, popt);
  const std::vector<std::uint64_t> values = kernel.result();
  popt.path = ExecPath::timing;
  const PipelineResult timing = kernel.pipeline().run(entry, popt);
  popt.path = ExecPath::threads;
  const PipelineResult threads = kernel.pipeline().run(entry, popt);

  EXPECT_TRUE(sim::verify_memory(timing.memory, compiled.memory).ok);
  EXPECT_TRUE(sim::verify_memory(threads.memory, compiled.memory).ok);
  EXPECT_EQ(timing.seconds, compiled.seconds);
  EXPECT_EQ(kernel.result(), values);
  EXPECT_EQ(kernel.result(), kernel.reference());
}

TEST(Boolmm, TunedScatterStillVerifies) {
  const sim::MachineParams machine = machine_for("cube");
  BoolmmOptions opt;
  opt.nb = 128;
  BoolmmKernel kernel(machine, opt);
  const TunedComposition tuned = tune_pipeline(kernel.pipeline(), kernel.initial_memory());
  ASSERT_EQ(tuned.stages.size(), 1u);  // scatter is the only comm stage.
  EXPECT_LE(tuned.tuned_seconds, tuned.naive_seconds);
  PipelineOptions popt;
  popt.composition = tuned.composition;
  const PipelineResult result = kernel.pipeline().run(kernel.initial_memory(), popt);
  EXPECT_TRUE(sim::verify_memory(result.memory, kernel.final_memory()).ok);
  EXPECT_EQ(kernel.result(), kernel.reference());
}

TEST(BoolmmFuzz, RandomDensitiesAndMachinesVerifyEndToEnd) {
  const unsigned seed = fuzz::fuzz_seed(20260808u);
  std::mt19937 rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    const bool cube = rng() % 2 == 0;
    const sim::MachineParams machine =
        cube ? sim::MachineParams::ipsc(2 + static_cast<int>(rng() % 2))
             : sim::MachineParams::on_topology(topo::torus_id({2, 2 + static_cast<int>(rng() % 3)}),
                                               sim::MachineParams::ipsc(0));
    BoolmmOptions opt;
    opt.nb = 64 * (1 + rng() % 2);
    while (opt.nb % machine.nodes() != 0) opt.nb += 64;
    opt.seed = rng();
    opt.density = 2 + rng() % 5;
    BoolmmKernel kernel(machine, opt);
    const PipelineResult result = kernel.pipeline().run(kernel.initial_memory());
    ASSERT_TRUE(sim::verify_memory(result.memory, kernel.final_memory()).ok)
        << "NCT_FUZZ_SEED=" << seed << " trial " << trial << " " << kernel.signature();
    ASSERT_EQ(kernel.result(), kernel.reference())
        << "NCT_FUZZ_SEED=" << seed << " trial " << trial << " " << kernel.signature();
  }
}

}  // namespace
}  // namespace nct::kernels
