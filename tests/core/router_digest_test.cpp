// Pins the programs route_elements plans, as one digest per schedule
// family: every phase's send arrays, stages and copies (see
// golden::fnv1a64(h, const sim::Program&)).  The grid crosses the
// unbuffered, buffered and optimal(2) policies, slot headroom 1 and 2,
// n in 2..10, 1, 4 and 64 elements per node, and consecutive and cyclic
// 2D layouts, transposing each matrix.  A last digest covers the
// mixed-encoding planners and the routed 1D transpose.  Any change to
// the router's message grouping, send order, arrival slots or final
// copies moves a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/rearrange.hpp"
#include "core/mixed_encoding.hpp"
#include "core/router.hpp"
#include "core/transpose1d.hpp"
#include "cube/address.hpp"
#include "support/golden_digest.hpp"

namespace nct::core {
namespace {

using cube::Encoding;
using cube::MatrixShape;
using cube::PartitionSpec;

using Schedule = std::vector<std::vector<int>>;

/// Phase {j + n - n/2, j} for j = n/2 - 1 .. 0, after the middle
/// dimension alone when n is odd: the stepwise transpose's pairs.
Schedule pair_schedule(int n) {
  const int half = n / 2;
  Schedule s;
  if (n % 2 == 1) s.push_back({half});
  for (int j = half - 1; j >= 0; --j) s.push_back({j + n - half, j});
  return s;
}

Schedule direct_schedule(int n) {
  std::vector<int> all;
  for (int d = n - 1; d >= 0; --d) all.push_back(d);
  return {all};
}

std::vector<RouterOptions> option_grid() {
  std::vector<RouterOptions> grid;
  for (const BufferPolicy policy :
       {BufferPolicy::unbuffered(), BufferPolicy::buffered(), BufferPolicy::optimal(2)}) {
    for (const word headroom : {word{1}, word{2}}) {
      RouterOptions o;
      o.policy = policy;
      o.slot_headroom_factor = headroom;
      grid.push_back(o);
    }
  }
  return grid;
}

/// Folds plan()'s program into `h`, or a marker when it throws
/// std::runtime_error: headroom 1, and on the per-dimension schedule
/// headroom 2 too, runs out of slots on unbalanced phases, so the digest
/// also pins which plans fail.
template <class Plan>
void fold_plan(std::uint64_t& h, const Plan& plan) {
  try {
    golden::fnv1a64(h, plan());
  } catch (const std::runtime_error&) {
    golden::fnv1a64(h, std::uint64_t{0xf011f011ULL});
  }
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(h));
  return buf;
}

/// Digest of routing the transpose of a 2^n * L element matrix, every
/// option of option_grid(), n in 2..10, L in {1, 4, 64}, both layouts,
/// through schedule(n).
std::uint64_t transpose_grid_digest(Schedule (*schedule)(int)) {
  std::uint64_t h = golden::kFnvBasis;
  for (int n = 2; n <= 10; ++n) {
    const int n_r = (n + 1) / 2, n_c = n / 2;
    for (const int lg_l : {0, 2, 6}) {
      const int p = (n + lg_l + 1) / 2;
      const MatrixShape shape{p, n + lg_l - p};
      for (const bool cyclic : {false, true}) {
        const auto spec = [cyclic](MatrixShape s, int rows, int cols) {
          return cyclic ? PartitionSpec::two_dim_cyclic(s, rows, cols)
                        : PartitionSpec::two_dim_consecutive(s, rows, cols);
        };
        const PartitionSpec before = spec(shape, n_r, n_c);
        const PartitionSpec after = spec(shape.transposed(), n_c, n_r);
        const auto dest = [&](word e) {
          const word t = cube::transpose_address(shape, e);
          return Placement{after.processor_of(t), after.local_of(t)};
        };
        const word slots = before.local_elements();
        for (const RouterOptions& o : option_grid()) {
          fold_plan(h, [&] {
            return route_elements(n, comm::spec_image(before, n, slots), slots, dest,
                                  schedule(n), o);
          });
        }
      }
    }
  }
  return h;
}

TEST(RouterDigest, PerDimensionSchedule) {
  const std::uint64_t h = transpose_grid_digest(per_dimension_schedule);
  EXPECT_EQ(h, 0x6eacd2fa071a95fdULL) << "digest " << hex(h);
}

TEST(RouterDigest, PairSchedule) {
  const std::uint64_t h = transpose_grid_digest(pair_schedule);
  EXPECT_EQ(h, 0x44496314c950b36bULL) << "digest " << hex(h);
}

TEST(RouterDigest, DirectSchedule) {
  const std::uint64_t h = transpose_grid_digest(direct_schedule);
  EXPECT_EQ(h, 0xc9b5afff67e8a855ULL) << "digest " << hex(h);
}

TEST(RouterDigest, MixedEncodingAndRouted1D) {
  std::uint64_t h = golden::kFnvBasis;
  for (const RouterOptions& o : option_grid()) {
    for (const int half : {1, 2, 3, 4}) {
      for (const int lg_l : {0, 2}) {
        const MatrixShape s{half + lg_l / 2, half + lg_l - lg_l / 2};
        const auto spec = [half](MatrixShape m, Encoding rows, Encoding cols) {
          return PartitionSpec::two_dim_cyclic(m, half, half, rows, cols);
        };
        const auto before = spec(s, Encoding::binary, Encoding::gray);
        const auto inter = spec(s, Encoding::gray, Encoding::binary);
        const auto after = spec(s.transposed(), Encoding::binary, Encoding::gray);
        fold_plan(h, [&] { return transpose_mixed_combined(before, after, o); });
        fold_plan(h, [&] { return transpose_mixed_naive(before, inter, after, o); });
      }
    }
    // 1D layouts keep the per-dimension schedule balanced.
    const MatrixShape s{6, 7};
    for (int n = 1; n <= 6; ++n) {
      for (const Encoding e : {Encoding::binary, Encoding::gray}) {
        fold_plan(h, [&] {
          return transpose_1d_routed(PartitionSpec::col_cyclic(s, n, e),
                                     PartitionSpec::col_cyclic(s.transposed(), n, e), n, o);
        });
        fold_plan(h, [&] {
          return transpose_1d_routed(PartitionSpec::row_consecutive(s, n, e),
                                     PartitionSpec::row_consecutive(s.transposed(), n, e), n,
                                     o);
        });
      }
    }
  }
  EXPECT_EQ(h, 0x9a7b600a2a138f79ULL) << "digest " << hex(h);
}

}  // namespace
}  // namespace nct::core
