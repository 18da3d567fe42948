// Tests for the concurrency-control substrate: lock manager (page/object X
// locks, waiting, release-all), deadlock detector, copy tables, and local
// lock state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cc/copy_table.h"
#include "cc/deadlock_detector.h"
#include "cc/local_locks.h"
#include "cc/lock_manager.h"
#include "sim/simulation.h"
#include "storage/database.h"

namespace psoodb::cc {
namespace {

using sim::Simulation;
using sim::Task;
using storage::ClientId;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::TxnId;

// --- DeadlockDetector -------------------------------------------------------

TEST(DeadlockDetectorTest, NoCycleNoThrow) {
  DeadlockDetector d;
  EXPECT_FALSE(d.OnWait(1, {2}));
  EXPECT_FALSE(d.OnWait(2, {3}));
  EXPECT_EQ(d.deadlocks_detected(), 0u);
}

TEST(DeadlockDetectorTest, DirectCycleAborts) {
  DeadlockDetector d;
  EXPECT_FALSE(d.OnWait(1, {2}));
  EXPECT_TRUE(d.OnWait(2, {1}));
  EXPECT_EQ(d.deadlocks_detected(), 1u);
  // The failed wait's edges were rolled back: 2 has no out-edges.
  EXPECT_FALSE(d.OnWait(3, {2}));
}

TEST(DeadlockDetectorTest, TransitiveCycleAborts) {
  DeadlockDetector d;
  EXPECT_FALSE(d.OnWait(1, {2}));
  EXPECT_FALSE(d.OnWait(2, {3}));
  EXPECT_FALSE(d.OnWait(3, {4}));
  EXPECT_TRUE(d.OnWait(4, {1}));
}

TEST(DeadlockDetectorTest, SelfAndNullHoldersIgnored) {
  DeadlockDetector d;
  EXPECT_FALSE(d.OnWait(1, {1, kNoTxn}));
  EXPECT_EQ(d.edge_count(), 0u);
}

TEST(DeadlockDetectorTest, ClearWaitsBreaksCycle) {
  DeadlockDetector d;
  EXPECT_FALSE(d.OnWait(1, {2}));
  d.ClearWaits(1);
  EXPECT_FALSE(d.OnWait(2, {1}));
}

TEST(DeadlockDetectorTest, RemoveTxnDropsIncomingEdges) {
  DeadlockDetector d;
  EXPECT_FALSE(d.OnWait(1, {2}));
  EXPECT_FALSE(d.OnWait(3, {2}));
  d.RemoveTxn(2);
  EXPECT_EQ(d.edge_count(), 0u);
}

TEST(DeadlockDetectorTest, AbortCarriesTxnAndReason) {
  // The verdict goes to the waiter whose wait closes the cycle, and counts
  // a deadlock; a marked victim gets it once, from its next check.
  DeadlockDetector d;
  EXPECT_FALSE(d.OnWait(1, {2}));
  EXPECT_TRUE(d.OnWait(2, {1}));
  EXPECT_EQ(d.deadlocks_detected(), 1u);
  EXPECT_EQ(d.edge_count(), 1u);  // 1 -> 2 stays; 2 -> 1 was rolled back
  d.MarkVictim(1);
  EXPECT_EQ(d.deadlocks_detected(), 2u);
  EXPECT_FALSE(d.CheckVictim(2));
  EXPECT_TRUE(d.OnWait(1, {3}));  // a victim's next wait aborts it
  EXPECT_FALSE(d.CheckVictim(1));
  EXPECT_EQ(d.deadlocks_detected(), 2u);
}

// --- LockManager -------------------------------------------------------------

Task AcquirePage(LockManager& lm, PageId p, TxnId t, ClientId c, bool* got) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await lm.AcquirePageX(p, t, c);
  *got = true;
}

Task AcquireObject(LockManager& lm, ObjectId o, PageId p, TxnId t, ClientId c,
                   bool* got) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await lm.AcquireObjectX(o, p, t, c);
  *got = true;
}

Task WaitPage(LockManager& lm, PageId p, TxnId t, bool* done) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await lm.WaitPageFree(p, t);
  *done = true;
}

TEST(LockManagerTest, UncontestedAcquireIsImmediate) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool got = false;
  sim.Spawn(AcquirePage(lm, 7, 1, 0, &got));
  EXPECT_TRUE(got);  // no suspension needed
  EXPECT_EQ(lm.PageXHolder(7), 1u);
  EXPECT_EQ(lm.PageXHolderClient(7), 0);
}

TEST(LockManagerTest, ConflictBlocksUntilRelease) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool got1 = false, got2 = false;
  sim.Spawn(AcquirePage(lm, 7, 1, 0, &got1));
  sim.Spawn(AcquirePage(lm, 7, 2, 1, &got2));
  sim.Run();
  EXPECT_TRUE(got1);
  EXPECT_FALSE(got2);
  EXPECT_EQ(lm.lock_waits(), 1u);
  lm.ReleasePageX(7, 1);
  sim.Run();
  EXPECT_TRUE(got2);
  EXPECT_EQ(lm.PageXHolder(7), 2u);
}

TEST(LockManagerTest, ReacquireByHolderIsNoop) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool a = false, b = false;
  sim.Spawn(AcquirePage(lm, 7, 1, 0, &a));
  sim.Spawn(AcquirePage(lm, 7, 1, 0, &b));
  sim.Run();
  EXPECT_TRUE(a && b);
}

TEST(LockManagerTest, WaitFreeDoesNotAcquire) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool done = false;
  sim.Spawn(WaitPage(lm, 7, 5, &done));
  EXPECT_TRUE(done);
  EXPECT_EQ(lm.PageXHolder(7), kNoTxn);
}

TEST(LockManagerTest, WaitFreeBlocksOnHolder) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool got = false, done = false;
  sim.Spawn(AcquirePage(lm, 7, 1, 0, &got));
  sim.Spawn(WaitPage(lm, 7, 5, &done));
  sim.Run();
  EXPECT_FALSE(done);
  lm.ReleasePageX(7, 1);
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(lm.PageXHolder(7), kNoTxn);
}

TEST(LockManagerTest, PageAndObjectNamespacesAreIndependent) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool a = false, b = false;
  sim.Spawn(AcquirePage(lm, 7, 1, 0, &a));
  sim.Spawn(AcquireObject(lm, 7, 0, 2, 1, &b));  // object id 7 != page id 7
  sim.Run();
  EXPECT_TRUE(a && b);
}

TEST(LockManagerTest, ObjectLocksOnPageIndex) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  const storage::ObjectLayout layout(10, 20);  // page p holds 20p .. 20p+19
  bool g = false;
  sim.Spawn(AcquireObject(lm, 100, 5, 1, 0, &g));
  sim.Spawn(AcquireObject(lm, 101, 5, 1, 0, &g));
  sim.Spawn(AcquireObject(lm, 120, 6, 2, 1, &g));
  sim.Run();
  EXPECT_EQ(lm.OtherObjectLockMask(5, 2, layout), 0b11u);
  EXPECT_EQ(lm.OtherObjectLockMask(5, 1, layout), 0u);
  EXPECT_EQ(lm.OtherObjectLockMask(6, 2, layout), 0u);
  EXPECT_EQ(lm.OtherObjectLockMask(6, 1, layout), 0b1u);
  lm.ReleaseObjectX(100, 1);
  EXPECT_EQ(lm.OtherObjectLockMask(5, 2, layout), 0b10u);
  lm.ReleaseObjectX(101, 1);
  EXPECT_EQ(lm.OtherObjectLockMask(5, 2, layout), 0u);
}

TEST(LockManagerTest, OtherObjectLockMaskIgnoresGrantOrder) {
  // Locks granted out of slot order, by two transactions: the mask holds
  // exactly the other transaction's slots, whatever the grant order.
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  const storage::ObjectLayout layout(10, 20);
  bool g = false;
  for (ObjectId o : {107, 101, 119, 112, 103}) {
    sim.Spawn(AcquireObject(lm, o, 5, o % 2 == 1 ? 1 : 2, 0, &g));
  }
  sim.Run();
  const storage::SlotMask all = storage::SlotBit(7) | storage::SlotBit(1) |
                                storage::SlotBit(19) | storage::SlotBit(12) |
                                storage::SlotBit(3);
  EXPECT_EQ(lm.OtherObjectLockMask(5, 2, layout),
            all & ~storage::SlotBit(12));
  EXPECT_EQ(lm.OtherObjectLockMask(5, 1, layout), storage::SlotBit(12));
  EXPECT_EQ(lm.OtherObjectLockMask(5, kNoTxn, layout), all);
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool g = false;
  sim.Spawn(AcquirePage(lm, 1, 9, 0, &g));
  sim.Spawn(AcquirePage(lm, 2, 9, 0, &g));
  sim.Spawn(AcquireObject(lm, 50, 2, 9, 0, &g));
  sim.Run();
  EXPECT_EQ(lm.ReleaseAll(9), 3);
  EXPECT_EQ(lm.PageXHolder(1), kNoTxn);
  EXPECT_EQ(lm.PageXHolder(2), kNoTxn);
  EXPECT_EQ(lm.ObjectXHolder(50), kNoTxn);
  EXPECT_EQ(lm.ReleaseAll(9), 0);
}

Task AcquireAndLog(LockManager& lm, PageId p, TxnId t, ClientId c,
                   std::vector<PageId>* order) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await lm.AcquirePageX(p, t, c);
  order->push_back(p);
}

TEST(LockManagerTest, ReleaseAllWakesWaitersInPageOrder) {
  // Regression: ReleaseAll used to walk the per-txn reverse map in bucket
  // order, so which waiter woke first depended on the stdlib's hash layout.
  // Releases are sorted by id now.
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool g = false;
  const std::vector<PageId> held = {11, 3, 27, 19, 5, 42, 8};
  for (PageId p : held) sim.Spawn(AcquirePage(lm, p, 1, 0, &g));
  sim.Run();
  std::vector<PageId> order;
  for (PageId p : held) sim.Spawn(AcquireAndLog(lm, p, 2, 1, &order));
  sim.Run();
  EXPECT_TRUE(order.empty());  // all parked behind txn 1
  EXPECT_EQ(lm.ReleaseAll(1), static_cast<int>(held.size()));
  sim.Run();
  std::vector<PageId> sorted = held;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(order, sorted);
}

TEST(LockManagerTest, ReleaseByNonHolderIsIgnored) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool g = false;
  sim.Spawn(AcquirePage(lm, 1, 9, 0, &g));
  lm.ReleasePageX(1, 8);  // not the holder
  EXPECT_EQ(lm.PageXHolder(1), 9u);
}

Task AcquireTwo(Simulation& sim, LockManager& lm, PageId first, PageId second,
                TxnId t, bool* got_both, bool* aborted) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  bool abort = co_await lm.AcquirePageX(first, t, 0);
  if (!abort) {
    co_await sim.Delay(0.001);  // let the other transaction take its first lock
    abort = co_await lm.AcquirePageX(second, t, 0);
  }
  if (abort) {
    *aborted = true;
    lm.ReleaseAll(t);
    co_return;
  }
  *got_both = true;
}

TEST(LockManagerTest, DeadlockAbortsOneTransaction) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool both1 = false, both2 = false, ab1 = false, ab2 = false;
  sim.Spawn(AcquireTwo(sim, lm, 1, 2, /*txn=*/101, &both1, &ab1));
  sim.Spawn(AcquireTwo(sim, lm, 2, 1, /*txn=*/102, &both2, &ab2));
  sim.Run();
  // 101 holds 1 and waits for 2; 102 holds 2 and closes the cycle -> abort.
  EXPECT_TRUE(ab2);
  EXPECT_TRUE(both1);
  EXPECT_FALSE(ab1);
  EXPECT_EQ(d.deadlocks_detected(), 1u);
  EXPECT_EQ(lm.PageXHolder(1), 101u);
  EXPECT_EQ(lm.PageXHolder(2), 101u);
}

TEST(LockManagerTest, FifoishGrantUnderContention) {
  // The detector outlives the simulation: four waiters are still parked at
  // the end, and destroying their frames unregisters their wait channels.
  DeadlockDetector d;
  Simulation sim;
  LockManager lm(sim, d);
  bool got[5] = {false, false, false, false, false};
  bool first = false;
  sim.Spawn(AcquirePage(lm, 3, 1, 0, &first));
  for (int i = 0; i < 5; ++i) {
    sim.Spawn(AcquirePage(lm, 3, 10 + i, 0, &got[i]));
  }
  sim.Run();
  lm.ReleasePageX(3, 1);
  sim.Run();
  // Exactly one waiter acquired; it is the first one queued.
  EXPECT_TRUE(got[0]);
  EXPECT_FALSE(got[1]);
  EXPECT_EQ(lm.PageXHolder(3), 10u);
}

TEST(LockManagerTest, RecycledEntryStartsFree) {
  // Entries live on a slab and are recycled once free and unwaited. A
  // recycled entry must carry no holder, client or waiter count over to
  // its next key, and an object entry no page.
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool got1 = false, got2 = false;
  sim.Spawn(AcquirePage(lm, 7, 1, 3, &got1));
  sim.Spawn(AcquirePage(lm, 7, 2, 4, &got2));  // waits behind txn 1
  sim.Run();
  ASSERT_TRUE(got1);
  ASSERT_FALSE(got2);
  EXPECT_EQ(lm.waiting(), 1);
  lm.ReleaseAll(1);
  sim.Run();
  ASSERT_TRUE(got2);
  EXPECT_EQ(lm.PageXHolderClient(7), 4);
  EXPECT_EQ(lm.waiting(), 0);
  lm.ReleaseAll(2);  // page 7's entry goes back to the slab
  EXPECT_EQ(lm.PageXHolder(7), kNoTxn);
  EXPECT_EQ(lm.PageXHolderClient(7), storage::kNoClient);

  bool got3 = false, got4 = false;
  sim.Spawn(AcquirePage(lm, 9, 3, 5, &got3));  // reuses the slot
  ASSERT_TRUE(got3);
  EXPECT_EQ(lm.PageXHolder(9), 3u);
  EXPECT_EQ(lm.PageXHolderClient(9), 5);
  EXPECT_EQ(lm.waiting(), 0);
  sim.Spawn(AcquirePage(lm, 9, 4, 6, &got4));
  sim.Run();
  EXPECT_FALSE(got4);
  EXPECT_EQ(lm.waiting(), 1);  // the new waiter only
  lm.ReleaseAll(3);
  sim.Run();
  EXPECT_TRUE(got4);
  EXPECT_EQ(lm.ReleaseAll(4), 1);

  // An object entry and a per-page list, recycled for another page.
  const storage::ObjectLayout layout(10, 20);
  bool o1 = false, o2 = false;
  sim.Spawn(AcquireObject(lm, 100, 5, 1, 0, &o1));
  lm.ReleaseAll(1);
  sim.Spawn(AcquireObject(lm, 125, 6, 2, 1, &o2));
  ASSERT_TRUE(o1 && o2);
  EXPECT_EQ(lm.OtherObjectLockMask(5, kNoTxn, layout), 0u);
  EXPECT_EQ(lm.OtherObjectLockMask(6, kNoTxn, layout), storage::SlotBit(5));
  EXPECT_EQ(lm.OtherObjectLockMask(6, 2, layout), 0u);
  EXPECT_EQ(lm.ObjectXHolder(125), 2u);
  EXPECT_EQ(lm.ObjectXHolderClient(125), 1);
  EXPECT_EQ(lm.PagesHeldBy(2), 0u);
  EXPECT_EQ(lm.ObjectsHeldBy(2), 1u);
  EXPECT_TRUE(lm.CheckCoherence().empty());
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.ObjectsHeldBy(2), 0u);
  EXPECT_TRUE(lm.CheckCoherence().empty());
  EXPECT_EQ(d.edge_count(), 0u);
  EXPECT_EQ(d.parked(), 0u);
}

TEST(LockManagerTest, WaitOnFreeItemLeavesNoEntry) {
  Simulation sim;
  DeadlockDetector d;
  LockManager lm(sim, d);
  bool done = false;
  sim.Spawn(WaitPage(lm, 7, 5, &done));
  ASSERT_TRUE(done);
  EXPECT_EQ(lm.PageXHolderClient(7), storage::kNoClient);
  EXPECT_TRUE(lm.CheckCoherence().empty());  // no free, unwaited entry kept
}

// --- CopyTable ---------------------------------------------------------------

TEST(CopyTableTest, RegisterAndHolders) {
  PageCopyTable t;
  t.Register(5, 0);
  t.Register(5, 1);
  t.Register(5, 2);
  EXPECT_TRUE(t.Holds(5, 1));
  EXPECT_EQ(t.HolderCount(5), 3);
  auto holders = t.HoldersExcept(5, 1);
  EXPECT_EQ(holders.size(), 2u);
  for (const auto& h : holders) EXPECT_NE(h.client, 1);
}

TEST(CopyTableTest, HoldersExceptIsSortedByClient) {
  // Regression: holder order used to follow the hash table's bucket layout;
  // the callback fan-out driven by this list must be a function of the
  // sharing state alone.
  PageCopyTable t;
  for (ClientId c : {12, 3, 27, 0, 19, 5, 8}) t.Register(7, c);
  auto holders = t.HoldersExcept(7, 19);
  ASSERT_EQ(holders.size(), 6u);
  for (std::size_t i = 1; i < holders.size(); ++i) {
    EXPECT_LT(holders[i - 1].client, holders[i].client);
  }
}

TEST(CopyTableTest, UnregisterRemovesAndCleansUp) {
  PageCopyTable t;
  t.Register(5, 0);
  t.Unregister(5, 0);
  EXPECT_FALSE(t.Holds(5, 0));
  EXPECT_EQ(t.items_tracked(), 0u);
  t.Unregister(5, 3);  // absent: no-op
  EXPECT_EQ(t.unregistrations(), 1u);
}

TEST(CopyTableTest, DuplicateRegisterIsIdempotent) {
  ObjectCopyTable t;
  t.Register(9, 4);
  t.Register(9, 4);
  EXPECT_EQ(t.HolderCount(9), 1);
}

TEST(CopyTableTest, ReRegistrationBumpsEpoch) {
  PageCopyTable t;
  t.Register(5, 0);
  ASSERT_EQ(t.HoldersExcept(5, -1).size(), 1u);
  auto e1 = t.HoldersExcept(5, -1)[0].epoch;
  t.Register(5, 0);
  ASSERT_EQ(t.HoldersExcept(5, -1).size(), 1u);
  auto e2 = t.HoldersExcept(5, -1)[0].epoch;
  EXPECT_GT(e2, e1);
}

TEST(CopyTableTest, EpochCheckedUnregisterIgnoresStaleAcks) {
  // The race this protects against: a callback is issued against epoch e1;
  // the client purges and re-fetches (epoch e2) before the ack is applied.
  // The stale ack must not erase the fresh registration.
  PageCopyTable t;
  t.Register(5, 0);
  ASSERT_EQ(t.HoldersExcept(5, -1).size(), 1u);
  auto e1 = t.HoldersExcept(5, -1)[0].epoch;
  t.Register(5, 0);  // fresh copy shipped
  EXPECT_FALSE(t.UnregisterIfEpoch(5, 0, e1));  // stale ack: no-op
  EXPECT_TRUE(t.Holds(5, 0));
  ASSERT_EQ(t.HoldersExcept(5, -1).size(), 1u);
  auto e2 = t.HoldersExcept(5, -1)[0].epoch;
  EXPECT_TRUE(t.UnregisterIfEpoch(5, 0, e2));  // current epoch: removes
  EXPECT_FALSE(t.Holds(5, 0));
}

TEST(CopyTableTest, RecycledSlotStartsEmptyWhileEpochsKeepRising) {
  // Holder lists live on a slab; an item whose last holder leaves gives its
  // list back. The next item must not see the old holders, and epochs stay
  // unique across the reuse.
  PageCopyTable t;
  for (ClientId c = 0; c < 6; ++c) t.Register(5, c);  // spills past inline
  std::uint64_t last = 0;
  for (const auto& h : t.HoldersExcept(5, -1)) last = std::max(last, h.epoch);
  for (ClientId c = 0; c < 6; ++c) t.Unregister(5, c);
  EXPECT_EQ(t.items_tracked(), 0u);
  t.Register(9, 7);
  EXPECT_EQ(t.HolderCount(9), 1);
  EXPECT_EQ(t.HolderCount(5), 0);
  for (ClientId c = 0; c < 6; ++c) EXPECT_FALSE(t.Holds(9, c));
  const auto holders = t.HoldersExcept(9, -1);
  ASSERT_EQ(holders.size(), 1u);
  EXPECT_EQ(holders[0].client, 7);
  EXPECT_GT(holders[0].epoch, last);
  EXPECT_TRUE(t.HoldersExcept(9, 7).empty());
}

TEST(CopyTableTest, EpochUnregisterOnAbsentEntryIsNoop) {
  PageCopyTable t;
  EXPECT_FALSE(t.UnregisterIfEpoch(5, 0, 1));
  t.Register(5, 0);
  EXPECT_FALSE(t.UnregisterIfEpoch(5, 7, 1));  // different client
  EXPECT_TRUE(t.Holds(5, 0));
}

// --- LocalTxnLocks -----------------------------------------------------------
// Ids follow the layout: with 20 objects per page, objects 100 and 101 are
// slots 0 and 1 of page 5.

TEST(LocalLocksTest, RecordsFootprint) {
  const storage::ObjectLayout layout(/*num_pages=*/10, /*objects_per_page=*/20);
  LocalTxnLocks l(layout);
  const LocalTxnLocks::Access first = l.RecordRead(100);
  EXPECT_TRUE(first.first_on_page);
  EXPECT_TRUE(first.first_of_object);
  EXPECT_FALSE(first.own_write);
  const LocalTxnLocks::Access write = l.RecordWrite(101);
  EXPECT_FALSE(write.first_on_page);
  EXPECT_TRUE(write.first_of_object);
  EXPECT_FALSE(write.own_write);
  const LocalTxnLocks::Access reread = l.RecordRead(101);
  EXPECT_FALSE(reread.first_of_object);
  EXPECT_TRUE(reread.own_write);
  EXPECT_TRUE(l.ReadsObject(100));
  EXPECT_FALSE(l.WritesObject(100));
  EXPECT_TRUE(l.WritesObject(101));
  EXPECT_TRUE(l.ReadsObject(101));  // writers also read
  EXPECT_TRUE(l.UsesPage(5));
  EXPECT_FALSE(l.UsesPage(6));
  EXPECT_EQ(l.footprint().size(), 1u);  // one entry per page
  EXPECT_TRUE(l.ReleasePins());   // Abort unpins before its purge ...
  EXPECT_FALSE(l.ReleasePins());  // ... and EndTxnLocal finds nothing left
  l.Clear();
  EXPECT_TRUE(l.ReleasePins());
}

TEST(LocalLocksTest, WritePermissions) {
  const storage::ObjectLayout layout(/*num_pages=*/10, /*objects_per_page=*/20);
  LocalTxnLocks l(layout);
  l.GrantPageWrite(5);
  l.GrantObjectWrite(120);  // page 6, slot 0
  EXPECT_TRUE(l.HasPageWrite(5));
  EXPECT_TRUE(l.HasObjectWrite(120));
  EXPECT_TRUE(l.HoldsWrite(101));  // under the page lock
  EXPECT_TRUE(l.HoldsWrite(120));
  EXPECT_FALSE(l.HoldsWrite(121));
  EXPECT_FALSE(l.UsesPage(5));  // a write lock alone is no access
  l.RevokePageWrite(5);
  EXPECT_FALSE(l.HasPageWrite(5));
  EXPECT_FALSE(l.HoldsWrite(101));
  l.Clear();
  EXPECT_FALSE(l.HasObjectWrite(120));
  EXPECT_FALSE(l.UsesPage(5));
}

}  // namespace
}  // namespace psoodb::cc
