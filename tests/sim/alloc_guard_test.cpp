// Allocation guard for the planners: counts calls to a replacement
// global operator new while planning a 12-cube transpose, and operator
// delete while the program is destroyed.  Sends are stored flat per
// phase (SendList), so planning costs less than one heap block per send
// and a program frees a fixed number of blocks per phase, however many
// sends it holds.  This is its own binary because the replacement
// operators apply to the whole program.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "core/transpose2d.hpp"
#include "sim/program.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> news{0};
std::atomic<std::size_t> deletes{0};

void count_delete(void* p) {
  if (p != nullptr && counting.load(std::memory_order_relaxed))
    deletes.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  count_delete(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  count_delete(p);
  std::free(p);
}

namespace nct::core {
namespace {

/// Heap blocks one phase may own: its label, four copy/stage vectors and
/// the seven arrays of its SendList.
constexpr std::size_t kBlocksPerPhase = 12;

struct Counts {
  std::size_t sends = 0;
  std::size_t phases = 0;
  std::size_t plan_news = 0;
  std::size_t free_deletes = 0;
};

template <class Plan>
Counts measure(Plan plan) {
  Counts c;
  std::optional<sim::Program> program;
  news = 0;
  counting = true;
  program.emplace(plan());
  counting = false;
  c.plan_news = news;
  c.sends = program->total_sends();
  c.phases = program->phases.size();
  deletes = 0;
  counting = true;
  program.reset();
  counting = false;
  c.free_deletes = deletes;
  return c;
}

/// The 12-cube analogue of the 18-cube benchmark transposes: one
/// element per node, rows and columns split evenly over the cube.
struct Cube12 {
  static constexpr int kCube = 12;
  cube::MatrixShape shape{kCube / 2, kCube / 2};
  cube::PartitionSpec before =
      cube::PartitionSpec::two_dim_consecutive(shape, kCube / 2, kCube / 2);
  cube::PartitionSpec after =
      cube::PartitionSpec::two_dim_consecutive(shape.transposed(), kCube / 2, kCube / 2);
};

void expect_flat(const Counts& c) {
  ASSERT_GT(c.sends, 1000u);
  EXPECT_LT(c.plan_news, c.sends) << "planning allocated " << c.plan_news << " blocks for "
                                  << c.sends << " sends";
  EXPECT_LE(c.free_deletes, kBlocksPerPhase * c.phases + 1)
      << "freeing " << c.phases << " phases released " << c.free_deletes << " blocks";
}

TEST(AllocGuard, StepwiseTransposePlansInFewerBlocksThanSends) {
  const Cube12 c;
  const auto machine = sim::MachineParams::ipsc(Cube12::kCube);
  expect_flat(measure([&] { return transpose_2d_stepwise(c.before, c.after, machine); }));
}

TEST(AllocGuard, DirectTransposePlansInFewerBlocksThanSends) {
  const Cube12 c;
  const auto machine = sim::MachineParams::cm(Cube12::kCube);
  expect_flat(measure([&] { return transpose_2d_direct(c.before, c.after, machine); }));
}

}  // namespace
}  // namespace nct::core
