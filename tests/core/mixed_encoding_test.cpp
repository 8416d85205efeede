#include "core/mixed_encoding.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/router.hpp"
#include "core/transpose1d.hpp"
#include "sim/engine.hpp"

namespace nct::core {
namespace {

using cube::Encoding;
using cube::MatrixShape;
using cube::PartitionSpec;

sim::MachineParams machine(int n) {
  auto m = sim::MachineParams::nport(n, 1.0, 0.25);
  m.port = sim::PortModel::one_port;
  return m;
}

void expect_mixed(const PartitionSpec& before, const PartitionSpec& after,
                  const sim::Program& prog, int n, const char* what) {
  const auto init = transpose_initial_memory(before, n, prog.local_slots);
  const auto res = sim::Engine(machine(n)).run(prog, init);
  const auto expected =
      transpose_expected_memory(before.shape(), after, n, prog.local_slots);
  const auto v = sim::verify_memory(res.memory, expected);
  EXPECT_TRUE(v.ok) << what << ": " << v.message;
}

struct MixCase {
  int p, half;
  Encoding row_b, col_b;  // encodings before (after uses the same pair)
};

class MixedEncoding : public ::testing::TestWithParam<MixCase> {};

TEST_P(MixedEncoding, CombinedCorrect) {
  const auto [p, half, re, ce] = GetParam();
  const MatrixShape s{p, p};
  const int n = 2 * half;
  const auto before = PartitionSpec::two_dim_cyclic(s, half, half, re, ce);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half, re, ce);
  expect_mixed(before, after, transpose_mixed_combined(before, after), n, "combined");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MixedEncoding,
    ::testing::Values(MixCase{2, 1, Encoding::binary, Encoding::gray},
                      MixCase{4, 2, Encoding::binary, Encoding::gray},
                      MixCase{4, 2, Encoding::gray, Encoding::binary},
                      MixCase{6, 3, Encoding::binary, Encoding::gray},
                      MixCase{4, 2, Encoding::gray, Encoding::gray},
                      MixCase{5, 2, Encoding::binary, Encoding::gray}));

TEST(MixedEncoding, CombinedUsesNRoutingSteps) {
  // Section 6.3: the combined algorithm needs n routing steps (2 per
  // iteration, n/2 iterations).
  const MatrixShape s{4, 4};
  const int half = 2, n = 4;
  const auto before =
      PartitionSpec::two_dim_cyclic(s, half, half, Encoding::binary, Encoding::gray);
  const auto after =
      PartitionSpec::two_dim_cyclic(s.transposed(), half, half, Encoding::binary,
                                    Encoding::gray);
  const auto prog = transpose_mixed_combined(before, after);
  EXPECT_EQ(routing_steps(prog), static_cast<std::size_t>(n));
}

TEST(MixedEncoding, NaiveCorrectAndUses2NMinus2Steps) {
  const MatrixShape s{4, 4};
  const int half = 2, n = 4;
  const auto before =
      PartitionSpec::two_dim_cyclic(s, half, half, Encoding::binary, Encoding::gray);
  // Convert rows to Gray and columns to binary, then transpose pairwise.
  const auto inter =
      PartitionSpec::two_dim_cyclic(s, half, half, Encoding::gray, Encoding::binary);
  const auto after =
      PartitionSpec::two_dim_cyclic(s.transposed(), half, half, Encoding::binary,
                                    Encoding::gray);
  const auto prog = transpose_mixed_naive(before, inter, after);
  expect_mixed(before, after, prog, n, "naive");
  // n/2 - 1 + n/2 - 1 + n = 2n - 2 routing steps.
  EXPECT_EQ(routing_steps(prog), static_cast<std::size_t>(2 * n - 2));
}

TEST(MixedEncoding, NaiveCorrectOnSixCube) {
  const MatrixShape s{5, 5};
  const int half = 3, n = 6;
  const auto before =
      PartitionSpec::two_dim_cyclic(s, half, half, Encoding::binary, Encoding::gray);
  const auto inter =
      PartitionSpec::two_dim_cyclic(s, half, half, Encoding::gray, Encoding::binary);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half,
                                                   Encoding::binary, Encoding::gray);
  const auto prog = transpose_mixed_naive(before, inter, after);
  expect_mixed(before, after, prog, n, "naive-6");
  EXPECT_EQ(routing_steps(prog), static_cast<std::size_t>(2 * n - 2));
}

TEST(Router, RejectsSlotCapacityBeyond32Bits) {
  // Slots are 32-bit: a headroom factor that takes the per-node
  // capacity past 2^32 is refused instead of truncating slot indices,
  // before the working image is allocated (and without the product
  // wrapping).
  const auto dest = [](word e) { return Placement{0, e}; };
  RouterOptions opt;
  opt.slot_headroom_factor = (word{1} << 32) + 1;
  EXPECT_THROW(route_elements(0, {0}, 1, dest, {}, opt), std::invalid_argument);
  opt.slot_headroom_factor = (word{1} << 31) + 1;
  EXPECT_THROW(route_elements(0, {0, 1}, 2, dest, {}, opt), std::invalid_argument);
  opt.slot_headroom_factor = 1;
  const auto prog = route_elements(0, {0, 1}, 2, dest, {}, opt);
  EXPECT_EQ(prog.local_slots, 2u);
}

TEST(Router, RejectsBadScheduleDimensions) {
  // A schedule dimension outside [0, n), or one repeated within a
  // phase, is a typed error (64 and above used to be an undefined
  // shift, and [n, 64) an assertion failure at the end of planning).
  const auto dest = [](word e) { return Placement{e ^ 3, 0}; };
  const std::vector<word> image{0, 1, 2, 3};
  for (const int d : {2, 5, 63, 64, 200, -1}) {
    EXPECT_THROW(route_elements(2, image, 1, dest, {{1, 0}, {d}}), std::invalid_argument) << d;
  }
  EXPECT_THROW(route_elements(2, image, 1, dest, {{1, 0, 1}}), std::invalid_argument);
  EXPECT_THROW(route_elements(2, image, 1, dest, {{1}, {0, 0}}), std::invalid_argument);
  EXPECT_THROW(route_elements(-1, {}, 1, dest, {}), std::invalid_argument);
  EXPECT_THROW(route_elements(64, {}, 1, dest, {}), std::invalid_argument);
  // The same dimension in two phases is allowed.
  const auto prog = route_elements(2, image, 1, dest, {{1, 0}, {1}});
  EXPECT_EQ(routing_steps(prog), 2u);
}

TEST(Router, RejectsElementsTheScheduleCannotDeliver) {
  // Every element's node and destination may differ only in dimensions
  // the schedule crosses; otherwise the element could never arrive,
  // which is refused before planning (it was an assertion failure after
  // planning).  A destination outside the cube
  // differs in a dimension no schedule can cross.
  const std::vector<word> image{0, 1, 2, 3};
  const auto flip0 = [](word e) { return Placement{e ^ 1, 0}; };
  EXPECT_THROW(route_elements(2, image, 1, flip0, {{1}}), std::invalid_argument);
  EXPECT_NO_THROW(route_elements(2, image, 1, flip0, {{1}, {0}}));
  const auto outside = [](word e) { return Placement{e == 2 ? word{4} : e, 0}; };
  EXPECT_THROW(route_elements(2, image, 1, outside, {{1, 0}}), std::invalid_argument);
  // A destination slot past the capacity (slots x headroom) could never
  // be filled.
  const auto slot2 = [](word e) { return Placement{e, 2}; };
  EXPECT_THROW(route_elements(2, image, 1, slot2, {{1, 0}}), std::invalid_argument);
  RouterOptions opt;
  opt.slot_headroom_factor = 3;
  EXPECT_NO_THROW(route_elements(2, image, 1, slot2, {{1, 0}}, opt));
  opt.slot_headroom_factor = 0;
  EXPECT_THROW(route_elements(2, image, 1, flip0, {{0}}, opt), std::invalid_argument);
}

TEST(MixedEncoding, CombinedFasterThanNaive) {
  // Figure 15: the n-step combined algorithm beats the 2n-2 step naive
  // one.
  const MatrixShape s{6, 6};
  const int half = 2, n = 4;
  const auto before =
      PartitionSpec::two_dim_cyclic(s, half, half, Encoding::binary, Encoding::gray);
  const auto inter =
      PartitionSpec::two_dim_cyclic(s, half, half, Encoding::gray, Encoding::binary);
  const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), half, half,
                                                   Encoding::binary, Encoding::gray);
  auto m = machine(n);
  m.tcopy = 0.0;
  RouterOptions opt;
  opt.charge_final_local = false;
  const auto combined = transpose_mixed_combined(before, after, opt);
  const auto naive = transpose_mixed_naive(before, inter, after, opt);
  const auto rc = sim::Engine(m).run(
      combined, transpose_initial_memory(before, n, combined.local_slots));
  const auto rn =
      sim::Engine(m).run(naive, transpose_initial_memory(before, n, naive.local_slots));
  EXPECT_LT(rc.total_time, rn.total_time);
}

TEST(MixedEncoding, BinaryToGrayTransposeVariant) {
  // Transpose a binary/binary matrix into a Gray/Gray transposed layout
  // in n routing steps (the Section 6.3 variant controlled by block
  // parity).
  const MatrixShape s{4, 4};
  const int half = 2, n = 4;
  const auto before =
      PartitionSpec::two_dim_cyclic(s, half, half, Encoding::binary, Encoding::binary);
  const auto after =
      PartitionSpec::two_dim_cyclic(s.transposed(), half, half, Encoding::gray,
                                    Encoding::gray);
  const auto prog = transpose_mixed_combined(before, after);
  expect_mixed(before, after, prog, n, "bin-to-gray");
  EXPECT_LE(routing_steps(prog), static_cast<std::size_t>(n));
}

TEST(MixedEncoding, RoundTripsAtMinAndMaxFieldWidths) {
  // Minimum: 1-bit row/col fields (width-1 Gray equals binary) with no
  // local bits at all — the smallest matrix the 2D layout can carry.
  {
    const MatrixShape s{1, 1};
    const auto before =
        PartitionSpec::two_dim_cyclic(s, 1, 1, Encoding::binary, Encoding::gray);
    const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), 1, 1,
                                                     Encoding::binary, Encoding::gray);
    expect_mixed(before, after, transpose_mixed_combined(before, after), 2,
                 "min-width fields");
  }
  // Maximum: full-width 3-bit fields, rp = m, one element per node.
  {
    const MatrixShape s{3, 3};
    const auto before =
        PartitionSpec::two_dim_cyclic(s, 3, 3, Encoding::gray, Encoding::binary);
    const auto after = PartitionSpec::two_dim_cyclic(s.transposed(), 3, 3,
                                                     Encoding::gray, Encoding::binary);
    expect_mixed(before, after, transpose_mixed_combined(before, after), 6,
                 "max-width fields");
  }
}

}  // namespace
}  // namespace nct::core
