// Model-checking tests for the open-addressing footprint tables
// (util/flat_set.h): seeded random sequences of insert / erase / count /
// clear are run in lockstep against std::unordered_set and
// std::unordered_map, comparing every return value and the full contents
// after each step. Key pools are chosen so probe runs collide and wrap past
// the last slot, tables grow mid-sequence, and clear() + refill keeps the
// block.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "util/flat_set.h"

namespace psoodb::util {
namespace {

using flat_detail::HomeSlot;

// --- Key pools ---------------------------------------------------------------

// Keys whose home slot, in a table of 2^bits slots, is one of the last two:
// their probe runs wrap past the end, and they collide with each other.
template <typename K>
std::vector<K> WrappingKeys(int bits, std::size_t n) {
  const std::size_t cap = std::size_t{1} << bits;
  std::vector<K> out;
  for (std::int64_t k = 0; out.size() < n; ++k) {
    if (HomeSlot(static_cast<K>(k), bits) + 2 >= cap) {
      out.push_back(static_cast<K>(k));
    }
  }
  return out;
}

// A pool mixing wrap-and-collide keys for the first three table sizes
// (8, 16, 32 slots), dense small ids, and the integral extremes (no key
// value is reserved).
template <typename K>
std::vector<K> KeyPool() {
  std::vector<K> pool;
  for (int bits = 3; bits <= 5; ++bits) {
    for (K k : WrappingKeys<K>(bits, 6)) pool.push_back(k);
  }
  for (K k = 0; k < 24; ++k) pool.push_back(k);
  pool.push_back(std::numeric_limits<K>::min());
  pool.push_back(std::numeric_limits<K>::max());
  pool.push_back(static_cast<K>(-1));
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  return pool;
}

// --- Content comparison -----------------------------------------------------

// Iteration must yield each member exactly once: collect, sort, and compare
// with the sorted reference.
template <typename K>
void ExpectSameMembers(const FlatSet<K>& flat,
                       const std::unordered_set<K>& ref) {
  std::vector<K> got;
  for (K k : flat) got.push_back(k);  // det-ok: sorted below
  std::vector<K> want(ref.begin(), ref.end());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got, want);
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.empty(), ref.empty());
}

template <typename K, typename V>
void ExpectSameEntries(const FlatMap<K, V>& flat,
                       const std::unordered_map<K, V>& ref) {
  std::vector<std::pair<K, V>> got(flat.begin(), flat.end());
  std::vector<std::pair<K, V>> want(ref.begin(), ref.end());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got, want);
  ASSERT_EQ(flat.size(), ref.size());
}

// --- Model check --------------------------------------------------------------

// One seeded round: random ops over the pool, with occasional clears. The
// op mix leans to inserts, so the table grows through several sizes inside
// the round; erase then churns long probe runs (backward shift).
template <typename K>
void SetRound(std::uint64_t seed, int ops) {
  const std::vector<K> pool = KeyPool<K>();
  FlatSet<K> flat;
  std::unordered_set<K> ref;
  sim::Rng rng(seed);
  std::size_t grew = 0;
  for (int op = 0; op < ops; ++op) {
    const K k = pool[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const double dice = rng.NextDouble();
    const std::size_t cap_before = flat.capacity();
    if (dice < 0.5) {
      ASSERT_EQ(flat.insert(k), ref.insert(k).second) << "insert " << k;
    } else if (dice < 0.8) {
      ASSERT_EQ(flat.erase(k), ref.erase(k)) << "erase " << k;
    } else if (dice < 0.99) {
      ASSERT_EQ(flat.count(k), ref.count(k)) << "count " << k;
    } else {
      flat.clear();
      ref.clear();
      ASSERT_EQ(flat.capacity(), cap_before) << "clear() must keep the block";
    }
    if (flat.capacity() > cap_before && cap_before > 0) ++grew;
    // Every pool key answers count() like the reference, so a broken probe
    // run (a key stranded behind an empty slot) is caught right away.
    for (K q : pool) ASSERT_EQ(flat.count(q), ref.count(q)) << "probe " << q;
    ExpectSameMembers(flat, ref);
  }
  EXPECT_GT(grew, 0u) << "the round never grew a non-empty table";
}

template <typename K>
void MapRound(std::uint64_t seed, int ops) {
  const std::vector<K> pool = KeyPool<K>();
  FlatMap<K, std::uint64_t> flat;
  std::unordered_map<K, std::uint64_t> ref;
  sim::Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const K k = pool[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const std::uint64_t v = rng.Next();
    const double dice = rng.NextDouble();
    if (dice < 0.35) {
      // First insert wins, as with unordered_map::emplace.
      ASSERT_EQ(flat.emplace(k, v), ref.emplace(k, v).second);
    } else if (dice < 0.5) {
      // Find or insert a zero, then update in place (growth included).
      flat[k] ^= v;
      ref[k] ^= v;
    } else if (dice < 0.8) {
      ASSERT_EQ(flat.erase(k), ref.erase(k));
    } else if (dice < 0.99) {
      const auto it = ref.find(k);
      const std::uint64_t* got = flat.find(k);
      ASSERT_EQ(got != nullptr, it != ref.end());
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
      ASSERT_EQ(flat.count(k), ref.count(k));
    } else {
      flat.clear();
      ref.clear();
    }
    ExpectSameEntries(flat, ref);
  }
}

TEST(FlatSetModelCheck, RandomSequencesMatchUnorderedSet) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SetRound<std::int64_t>(seed, 600);
    SetRound<std::int32_t>(seed + 100, 600);
  }
}

TEST(FlatMapModelCheck, RandomSequencesMatchUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    MapRound<std::int64_t>(seed, 600);
    MapRound<std::int32_t>(seed + 100, 600);
  }
}

// --- Targeted cases -------------------------------------------------------------

TEST(FlatSet, WrappedProbeRunSurvivesErase) {
  // Six keys homed in the last two of 8 slots fill a run that wraps to the
  // front; erasing from its middle must shift the wrapped tail back.
  const std::vector<std::int64_t> keys = WrappingKeys<std::int64_t>(3, 6);
  FlatSet<std::int64_t> s;
  for (std::int64_t k : keys) ASSERT_TRUE(s.insert(k));
  ASSERT_EQ(s.capacity(), 8u);  // 6 of 8 is the 3/4 load limit
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(s.erase(keys[i]), 1u);
    for (std::size_t j = 0; j < keys.size(); ++j) {
      EXPECT_EQ(s.count(keys[j]), j > i ? 1u : 0u) << i << " " << j;
    }
  }
  EXPECT_TRUE(s.empty());
}

TEST(FlatSet, GrowsAtThreeQuartersAndKeepsMembers) {
  FlatSet<std::int32_t> s;
  EXPECT_EQ(s.capacity(), 0u);  // an unused table owns no block
  for (std::int32_t k = 0; k < 6; ++k) s.insert(k);
  EXPECT_EQ(s.capacity(), 8u);
  s.insert(6);  // the 7th key would pass 3/4 of 8
  EXPECT_EQ(s.capacity(), 16u);
  for (std::int32_t k = 0; k < 7; ++k) EXPECT_EQ(s.count(k), 1u);
  EXPECT_FALSE(s.insert(3));  // duplicates neither insert nor grow
  EXPECT_EQ(s.size(), 7u);
}

TEST(FlatSet, ClearThenRefillKeepsTheBlock) {
  // clear() keeps the block and the refill fits it, so the table never
  // grows again (alloc_test counts the allocations themselves).
  FlatSet<std::int64_t> s;
  for (std::int64_t k = 0; k < 100; ++k) s.insert(k * 7919);
  const std::size_t cap = s.capacity();
  for (int round = 0; round < 3; ++round) {
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.begin() == s.end());
    EXPECT_EQ(s.capacity(), cap);
    for (std::int64_t k = 0; k < 100; ++k) {
      EXPECT_TRUE(s.insert(k * 7919 + round));
    }
    EXPECT_EQ(s.capacity(), cap);
    EXPECT_EQ(s.size(), 100u);
  }
}

}  // namespace
}  // namespace psoodb::util
