// Tests for the storage layer: object layout (including relocation), the
// block-sparse version store (sequential and from four threads), the generic
// LRU cache with pinning, and page/object frame state.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <latch>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "config/params.h"
#include "sim/random.h"
#include "storage/buffer_manager.h"
#include "storage/database.h"
#include "storage/lru_cache.h"
#include "storage/object_cache.h"

namespace psoodb::storage {
namespace {

TEST(ObjectLayoutTest, DenseDefaultMapping) {
  ObjectLayout layout(10, 20);
  EXPECT_EQ(layout.num_objects(), 200);
  EXPECT_EQ(layout.PageOf(0), 0);
  EXPECT_EQ(layout.SlotOf(0), 0);
  EXPECT_EQ(layout.PageOf(19), 0);
  EXPECT_EQ(layout.PageOf(20), 1);
  EXPECT_EQ(layout.SlotOf(20), 0);
  EXPECT_EQ(layout.PageOf(199), 9);
  EXPECT_EQ(layout.SlotOf(199), 19);
  EXPECT_EQ(layout.ObjectAt(3, 7), 3 * 20 + 7);
}

TEST(ObjectLayoutTest, MappingIsBijective) {
  for (int opp : {1, 2, 3, 20, 64}) {
    ObjectLayout layout(5, opp);
    std::set<ObjectId> seen;
    for (PageId p = 0; p < 5; ++p) {
      for (int s = 0; s < opp; ++s) {
        ObjectId oid = layout.ObjectAt(p, s);
        EXPECT_TRUE(seen.insert(oid).second) << "opp " << opp;
        EXPECT_EQ(layout.PageOf(oid), p) << "opp " << opp;
        EXPECT_EQ(layout.SlotOf(oid), s) << "opp " << opp;
      }
    }
    // 5 * opp distinct ids from 0 to num_objects() - 1: exactly the ids.
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(5 * opp));
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), layout.num_objects() - 1);
  }
  // The last object of the paper-scale database.
  ObjectLayout paper(100000, 20);
  const ObjectId last = paper.num_objects() - 1;
  EXPECT_EQ(last, 1999999);
  EXPECT_EQ(paper.PageOf(last), 99999);
  EXPECT_EQ(paper.SlotOf(last), 19);
  EXPECT_EQ(paper.ObjectAt(99999, 19), last);
}

TEST(ObjectLayoutTest, SwapRelocatesBothObjects) {
  ObjectLayout layout(4, 10);
  ObjectId a = 5, b = 27;
  layout.Swap(a, b);
  EXPECT_EQ(layout.PageOf(a), 2);
  EXPECT_EQ(layout.SlotOf(a), 7);
  EXPECT_EQ(layout.PageOf(b), 0);
  EXPECT_EQ(layout.SlotOf(b), 5);
  EXPECT_EQ(layout.ObjectAt(2, 7), a);
  EXPECT_EQ(layout.ObjectAt(0, 5), b);
  // Swap back restores the dense layout.
  layout.Swap(a, b);
  EXPECT_EQ(layout.PageOf(a), 0);
  EXPECT_EQ(layout.ObjectAt(2, 7), b);
}

TEST(ObjectLayoutDeathTest, ObjectIdsMustFitIn32Bits) {
  // 65,535 x 65,537 = 2^32 - 1 objects: the largest layout, whose last id
  // and location still fit the 32-bit arithmetic.
  ObjectLayout largest(65535, 65537);
  const ObjectId last = largest.num_objects() - 1;
  EXPECT_EQ(last, 4294967294);
  EXPECT_EQ(largest.PageOf(last), 65534);
  EXPECT_EQ(largest.SlotOf(last), 65536);
  EXPECT_EQ(largest.ObjectAt(65534, 65536), last);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ObjectLayout(65536, 65536), "do not fit 32-bit object ids");
}

// Seeded swaps, self-swaps and immediate swap-backs among them, against a
// reference permutation: every lookup agrees before and after each swap.
TEST(ObjectLayoutTest, SwapsMatchAReferencePermutation) {
  constexpr int kPages = 12;
  constexpr int kOpp = 5;
  ObjectLayout layout(kPages, kOpp);
  const ObjectId n = layout.num_objects();
  // where[oid] = page * kOpp + slot, and at[page * kOpp + slot] = oid.
  std::vector<ObjectId> where(static_cast<std::size_t>(n));
  std::vector<ObjectId> at(static_cast<std::size_t>(n));
  for (ObjectId i = 0; i < n; ++i) where[i] = at[i] = i;
  const auto matches = [&] {
    for (ObjectId oid = 0; oid < n; ++oid) {
      if (layout.PageOf(oid) != where[oid] / kOpp ||
          layout.SlotOf(oid) != where[oid] % kOpp) {
        return false;
      }
    }
    for (ObjectId loc = 0; loc < n; ++loc) {
      if (layout.ObjectAt(static_cast<PageId>(loc / kOpp),
                          static_cast<int>(loc % kOpp)) != at[loc]) {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(matches());
  sim::Rng rng(22);
  ObjectId prev_a = 0, prev_b = 0;
  int self_swaps = 0, swap_backs = 0;
  for (int i = 0; i < 1000; ++i) {
    ObjectId a = rng.UniformInt(0, n - 1);
    ObjectId b = rng.UniformInt(0, n - 1);
    const double dice = rng.NextDouble();
    if (dice < 0.1) {
      b = a;
    } else if (dice < 0.2) {
      a = prev_a;
      b = prev_b;
    }
    self_swaps += a == b;
    swap_backs += a == prev_a && b == prev_b && a != b;
    layout.Swap(a, b);
    std::swap(where[a], where[b]);
    at[where[a]] = a;
    at[where[b]] = b;
    prev_a = a;
    prev_b = b;
    ASSERT_TRUE(matches()) << "after swap " << i << " (" << a << ", " << b
                           << ")";
  }
  EXPECT_GT(self_swaps, 0);
  EXPECT_GT(swap_backs, 0);
}

TEST(DatabaseTest, CommitWriteBumpsVersions) {
  Database db(10, 20);
  EXPECT_EQ(db.committed_version(42), 0u);
  EXPECT_EQ(db.CommitWrite(42), 1u);
  EXPECT_EQ(db.CommitWrite(42), 2u);
  EXPECT_EQ(db.committed_version(42), 2u);
  EXPECT_EQ(db.committed_version(41), 0u);
}

// Seeded commits, reads and swaps against a dense reference vector: every
// object reads the version the reference holds. The shapes cover object
// counts that are multiples of the 64-object block (64, 192) and that are
// not (1, 63, 65, 99, 200); the first and the last id get extra commits and
// reads, and swaps between commits move objects without moving versions.
TEST(DatabaseTest, CommitsMatchADenseReference) {
  struct Shape {
    int pages;
    int opp;
  };
  for (const Shape shape : {Shape{1, 1}, Shape{7, 9}, Shape{8, 8},
                            Shape{65, 1}, Shape{33, 3}, Shape{3, 64},
                            Shape{10, 20}}) {
    SCOPED_TRACE(::testing::Message()
                 << shape.pages << " pages x " << shape.opp << " objects");
    Database db(shape.pages, shape.opp);
    const ObjectId n = db.layout().num_objects();
    std::vector<Version> ref(static_cast<std::size_t>(n), 0);
    const auto matches = [&] {
      for (ObjectId oid = 0; oid < n; ++oid) {
        if (db.committed_version(oid) != ref[static_cast<std::size_t>(oid)]) {
          return false;
        }
      }
      return true;
    };
    ASSERT_TRUE(matches());
    sim::Rng rng(static_cast<std::uint64_t>(shape.pages * 100 + shape.opp));
    int swaps = 0;
    for (int step = 0; step < 3000; ++step) {
      ObjectId oid = rng.UniformInt(0, n - 1);
      const double dice = rng.NextDouble();
      if (dice < 0.05) {
        oid = 0;
      } else if (dice < 0.1) {
        oid = n - 1;
      }
      const double op = rng.NextDouble();
      if (op < 0.45) {
        ASSERT_EQ(db.CommitWrite(oid), ++ref[static_cast<std::size_t>(oid)])
            << "step " << step << " oid " << oid;
      } else if (op < 0.9) {
        ASSERT_EQ(db.committed_version(oid),
                  ref[static_cast<std::size_t>(oid)])
            << "step " << step << " oid " << oid;
      } else {
        // A version belongs to its object id: after a swap the object now
        // at the other's location reads its own version.
        const ObjectId other = rng.UniformInt(0, n - 1);
        const PageId page = db.layout().PageOf(oid);
        const int slot = db.layout().SlotOf(oid);
        db.layout().Swap(oid, other);
        ++swaps;
        ASSERT_EQ(db.committed_version(db.layout().ObjectAt(page, slot)),
                  ref[static_cast<std::size_t>(other)])
            << "step " << step;
      }
      if (step % 250 == 0) {
        ASSERT_TRUE(matches()) << "step " << step;
      }
    }
    EXPECT_GT(swaps, 0);
    EXPECT_GT(ref.front(), 0u);
    EXPECT_GT(ref.back(), 0u);
    EXPECT_TRUE(matches());
  }
}

// Four threads write objects of the same blocks for the first time at once,
// the way the workers of four server partitions commit, while reading
// neighbouring objects that nobody writes and their own: every block's
// first commit races to publish it. Block 7812 of the paper-scale database
// straddles servers 0 and 1 at four servers. Each object is written by one
// thread only, as each is owned by one server, and ends at the number of
// commits it received.
TEST(DatabaseThreads, FirstWritesToSharedBlocksFromFourThreads) {
  constexpr int kThreads = 4;
  constexpr int kBlock = 64;
  constexpr int kStraddling = 7812;
  Database db(100000, 20);
  config::SystemParams params;
  params.db_pages = 100000;
  params.num_servers = 4;
  const ObjectId straddle_first = ObjectId{kStraddling} * kBlock;
  ASSERT_EQ(params.ServerOfPage(db.layout().PageOf(straddle_first)), 0);
  ASSERT_EQ(params.ServerOfPage(db.layout().PageOf(straddle_first + 63)), 1);
  std::vector<ObjectId> blocks;
  for (int b = 0; b < 512; ++b) blocks.push_back(b);
  blocks.push_back(kStraddling);
  blocks.push_back(db.layout().num_objects() / kBlock - 1);  // the last
  // Offset o of each block is written by thread o % 5, 1 + o % 3 times;
  // offsets o % 5 == 4 stay unwritten.
  const auto writer = [](int offset) { return offset % 5; };
  const auto commits = [](int offset) { return 1 + offset % 3; };
  std::latch start(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int round = 0; round < 3; ++round) {
        for (const ObjectId b : blocks) {
          for (int o = t; o < kBlock; o += 5) {
            if (round >= commits(o)) continue;
            const ObjectId oid = b * kBlock + o;
            if (db.CommitWrite(oid) != static_cast<Version>(round + 1) ||
                db.committed_version(oid) !=
                    static_cast<Version>(round + 1)) {
              ++mismatches;
            }
            for (const int n : {o - 1, o + 1}) {
              if (n >= 0 && n < kBlock && writer(n) == 4 &&
                  db.committed_version(b * kBlock + n) != 0) {
                ++mismatches;
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (const ObjectId b : blocks) {
    for (int o = 0; o < kBlock; ++o) {
      const Version want =
          writer(o) == 4 ? 0 : static_cast<Version>(commits(o));
      ASSERT_EQ(db.committed_version(b * kBlock + o), want)
          << "block " << b << " offset " << o;
    }
  }
  // A block no thread wrote still reads as version 0.
  EXPECT_EQ(db.committed_version(600 * kBlock), 0u);
}

TEST(LruCacheTest, InsertAndGet) {
  LruCache<int, int> cache(3);
  auto r = cache.Insert(1);
  EXPECT_TRUE(r.inserted);
  EXPECT_FALSE(r.evicted.has_value());
  *r.value = 10;
  EXPECT_EQ(*cache.Get(1), 10);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(LruCacheTest, ReinsertExistingKeyKeepsValue) {
  LruCache<int, int> cache(3);
  *cache.Insert(1).value = 10;
  auto r = cache.Insert(1);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(*r.value, 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(3);
  *cache.Insert(1).value = 10;
  *cache.Insert(2).value = 20;
  *cache.Insert(3).value = 30;
  cache.Get(1);  // make 2 the LRU
  auto r = cache.Insert(4);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->first, 2);
  EXPECT_EQ(r.evicted->second, 20);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(LruCacheTest, PeekDoesNotTouchRecency) {
  LruCache<int, int> cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Peek(1);  // must NOT protect 1
  auto r = cache.Insert(3);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->first, 1);
}

TEST(LruCacheTest, PinnedEntriesAreNotEvicted) {
  LruCache<int, int> cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Pin(1);
  auto r = cache.Insert(3);  // 1 is LRU but pinned -> evict 2
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->first, 2);
  cache.Unpin(1);
  auto r2 = cache.Insert(4);
  ASSERT_TRUE(r2.evicted.has_value());
  EXPECT_EQ(r2.evicted->first, 1);
}

TEST(LruCacheDeathTest, AllEntriesPinnedAbortsInsteadOfUB) {
  // Inserting into a full cache whose entries are all pinned violates the
  // eviction precondition; it must die with a diagnostic (it used to hit
  // __builtin_unreachable() in release builds).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  using Cache = LruCache<int, int>;  // no commas inside the macro argument
  EXPECT_DEATH(
      {
        Cache cache(2);
        cache.Insert(1);
        cache.Insert(2);
        cache.Pin(1);
        cache.Pin(2);
        cache.Insert(3);
      },
      "all 2 entries pinned");
}

TEST(LruCacheTest, RemoveReturnsValue) {
  LruCache<int, int> cache(2);
  *cache.Insert(1).value = 11;
  auto v = cache.Remove(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 11);
  EXPECT_FALSE(cache.Remove(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ForEachIteratesMruToLru) {
  LruCache<int, int> cache(3);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(3);
  cache.Get(1);
  std::vector<int> keys;
  cache.ForEach([&](int k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 2}));
}

TEST(PageFrameTest, AvailabilityMask) {
  PageFrame f;
  f.InitVersions(20);
  EXPECT_TRUE(f.IsAvailable(5));
  f.MarkUnavailable(5);
  EXPECT_FALSE(f.IsAvailable(5));
  EXPECT_TRUE(f.IsAvailable(4));
  f.MarkAvailable(5);
  EXPECT_TRUE(f.IsAvailable(5));
}

TEST(PageFrameTest, DirtyMask) {
  PageFrame f;
  EXPECT_FALSE(f.IsDirty());
  f.MarkDirty(3);
  f.MarkDirty(17);
  EXPECT_TRUE(f.IsDirty());
  EXPECT_EQ(PopCount(f.dirty), 2);
  EXPECT_EQ(f.dirty, SlotBit(3) | SlotBit(17));
}

TEST(PageFrameTest, SlotBitBounds) {
  EXPECT_EQ(SlotBit(0), 1u);
  EXPECT_EQ(SlotBit(63), 1ull << 63);
}

}  // namespace
}  // namespace psoodb::storage
