// Unit tests for util::SmallVector (util/small_vector.h): copy and move,
// construction and assignment, in every direction between inline and heap
// storage; insert / erase order; resize. The sanitizer build's leak checker
// turns a lost heap buffer into a failure of this executable.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "util/small_vector.h"

namespace psoodb::util {
namespace {

using Vec = SmallVector<int, 2>;

/// A vector holding first, first + 1, ..., first + n - 1.
Vec Iota(int n, int first = 0) {
  Vec v;
  for (int i = 0; i < n; ++i) v.push_back(first + i);
  return v;
}

std::vector<int> Contents(const Vec& v) { return {v.begin(), v.end()}; }

std::vector<int> IotaContents(int n, int first = 0) {
  return Contents(Iota(n, first));
}

TEST(SmallVectorTest, CopyConstructionFromInlineAndHeap) {
  const Vec small = Iota(2);
  const Vec big = Iota(5, 10);
  const Vec a(small);
  const Vec b(big);
  EXPECT_EQ(Contents(a), Contents(small));
  EXPECT_EQ(Contents(b), Contents(big));
  EXPECT_NE(b.begin(), big.begin());  // a deep copy
}

TEST(SmallVectorTest, CopyAssignmentInEveryDirection) {
  const Vec small = Iota(1, 100);
  const Vec big = Iota(5, 200);
  const Vec bigger = Iota(9, 300);
  Vec v;
  v = small;  // inline <- inline
  EXPECT_EQ(Contents(v), Contents(small));
  v = big;  // inline <- heap
  EXPECT_EQ(Contents(v), Contents(big));
  v = big;  // heap <- heap, fits
  EXPECT_EQ(Contents(v), Contents(big));
  v = bigger;  // heap <- larger heap
  EXPECT_EQ(Contents(v), Contents(bigger));
  v = small;  // heap <- inline
  EXPECT_EQ(Contents(v), Contents(small));
  v.push_back(7);
  v.push_back(8);
  EXPECT_EQ(Contents(v), (std::vector<int>{100, 7, 8}));
  const Vec& self = v;
  v = self;  // self-assignment
  EXPECT_EQ(Contents(v), (std::vector<int>{100, 7, 8}));
  // The leak this guards against: each assignment over a spilled buffer
  // used to drop it.
  Vec w;
  for (int r = 0; r < 3; ++r) {
    w = big;
    w = bigger;
    w = small;
  }
  EXPECT_EQ(Contents(w), Contents(small));
}

TEST(SmallVectorTest, MoveConstructionStealsOrCopies) {
  Vec big = Iota(6);
  const int* heap = big.begin();
  Vec a(std::move(big));
  EXPECT_EQ(a.begin(), heap);  // the heap buffer changed hands
  EXPECT_EQ(Contents(a), IotaContents(6));
  EXPECT_TRUE(big.empty());
  big.push_back(1);  // the source stays usable
  EXPECT_EQ(Contents(big), (std::vector<int>{1}));

  Vec small = Iota(2, 5);
  Vec b(std::move(small));
  EXPECT_EQ(Contents(b), IotaContents(2, 5));
  EXPECT_TRUE(small.empty());
}

TEST(SmallVectorTest, MoveAssignmentInEveryDirection) {
  Vec v = Iota(1);
  v = Iota(2, 10);  // inline <- inline
  EXPECT_EQ(Contents(v), IotaContents(2, 10));
  v = Iota(5, 20);  // inline <- heap
  EXPECT_EQ(Contents(v), IotaContents(5, 20));
  v = Iota(7, 30);  // heap <- heap
  EXPECT_EQ(Contents(v), IotaContents(7, 30));
  v = Iota(2, 40);  // heap <- inline
  EXPECT_EQ(Contents(v), IotaContents(2, 40));
  v.push_back(42);
  EXPECT_EQ(Contents(v), IotaContents(3, 40));
}

TEST(SmallVectorTest, InsertAndEraseKeepOrderAcrossSpill) {
  Vec v;
  v.insert(0, 30);
  v.insert(0, 10);
  v.insert(1, 20);  // spills to the heap
  v.insert(3, 40);
  v.insert(2, 25);
  EXPECT_EQ(Contents(v), (std::vector<int>{10, 20, 25, 30, 40}));
  v.erase(0);
  v.erase(3);
  v.erase(1);
  EXPECT_EQ(Contents(v), (std::vector<int>{20, 30}));
  EXPECT_EQ(v.back(), 30);
  v.pop_back();
  EXPECT_EQ(Contents(v), (std::vector<int>{20}));
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVectorTest, ResizeKeepsThePrefix) {
  Vec v = Iota(2);
  v.resize(6);  // grows past the inline capacity
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[1], 1);
  for (std::size_t i = 2; i < v.size(); ++i) v[i] = static_cast<int>(i);
  EXPECT_EQ(Contents(v), IotaContents(6));
  v.resize(3);
  EXPECT_EQ(Contents(v), IotaContents(3));
  v.resize(0);
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace psoodb::util
