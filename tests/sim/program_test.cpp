// SendList: the flat per-phase send storage.  add() must read back
// through operator[] and iteration field by field, and equality must
// see where one send ends and the next begins, not just the pools.
#include "sim/program.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nct::sim {
namespace {

std::vector<int> to_vector(std::span<const int> s) { return {s.begin(), s.end()}; }
std::vector<slot> to_vector(std::span<const slot> s) { return {s.begin(), s.end()}; }

TEST(Program, SendListEqualityRespectsBoundaries) {
  // Identical pools, different boundaries: {1,2},{3} against {1},{2,3}.
  SendList a, b;
  a.add(0, {1, 2}, {0}, {0});
  a.add(0, {3}, {1}, {1});
  b.add(0, {1}, {0}, {0});
  b.add(0, {2, 3}, {1}, {1});
  EXPECT_NE(a, b);
  SendList a2;
  a2.add(0, {1, 2}, {0}, {0});
  a2.add(0, {3}, {1}, {1});
  EXPECT_EQ(a, a2);

  // Every field reads back, by index and by iteration.
  SendList list;
  list.reserve(3, 4, 5);
  list.add(5, {2}, {0, 1}, {3, 4}, {true, false});
  list.add(6, {0, 1, 2}, {7}, {8}, {false, true});
  list.add(7, {}, {}, {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].src, 5u);
  EXPECT_EQ(to_vector(list[0].route), (std::vector<int>{2}));
  EXPECT_EQ(to_vector(list[0].src_slots), (std::vector<slot>{0, 1}));
  EXPECT_EQ(to_vector(list[0].dst_slots), (std::vector<slot>{3, 4}));
  EXPECT_TRUE(list[0].keep_source);
  EXPECT_FALSE(list[0].rerouted);
  EXPECT_EQ(list[1].src, 6u);
  EXPECT_EQ(to_vector(list[1].route), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(to_vector(list[1].src_slots), (std::vector<slot>{7}));
  EXPECT_EQ(to_vector(list[1].dst_slots), (std::vector<slot>{8}));
  EXPECT_FALSE(list[1].keep_source);
  EXPECT_TRUE(list[1].rerouted);
  EXPECT_TRUE(list[2].route.empty());
  EXPECT_EQ(list[2].elements(), 0u);
  std::size_t i = 0;
  for (const SendOp& op : list) {
    const SendOp at = list.at(i++);
    EXPECT_EQ(op.src, at.src);
    EXPECT_EQ(op.route.data(), at.route.data());
    EXPECT_EQ(op.route.size(), at.route.size());
    EXPECT_EQ(op.src_slots.data(), at.src_slots.data());
    EXPECT_EQ(op.dst_slots.size(), at.dst_slots.size());
    EXPECT_EQ(op.keep_source, at.keep_source);
    EXPECT_EQ(op.rerouted, at.rerouted);
  }
  EXPECT_EQ(i, 3u);
  EXPECT_THROW(list.at(3), std::out_of_range);
  EXPECT_EQ(list.total_elements(), 3u);
  EXPECT_EQ(list.total_hops(), 4u);

  // Program totals against a hand count: 3 + 2 sends, 3 + 2 elements.
  Program prog;
  prog.phases.resize(2);
  prog.phases[0].sends = list;
  prog.phases[1].sends = a;
  EXPECT_EQ(prog.total_sends(), 5u);
  EXPECT_EQ(prog.total_elements_sent(), 5u);
}

TEST(Program, SendListRefusesMismatchedSlotLists) {
  SendList list;
  EXPECT_THROW(list.add(0, {0}, {0, 1}, {0}), ProgramError);
  EXPECT_TRUE(list.empty());
}

}  // namespace
}  // namespace nct::sim
