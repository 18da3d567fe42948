// Unit tests for the committed-history serializability and lost-update
// checkers (which the protocol integration tests rely on). Includes known
// serializable and non-serializable histories.

#include <gtest/gtest.h>

#include "core/history.h"

namespace psoodb::core {
namespace {

CommittedTxn Txn(storage::TxnId id,
                 std::vector<std::pair<storage::ObjectId, storage::Version>>
                     reads,
                 std::vector<std::pair<storage::ObjectId, storage::Version>>
                     writes) {
  CommittedTxn t;
  t.txn = id;
  t.reads = std::move(reads);
  t.writes = std::move(writes);
  return t;
}

TEST(HistoryTest, EmptyHistoryIsSerializable) {
  History h;
  EXPECT_TRUE(h.IsSerializable());
  EXPECT_TRUE(h.NoLostUpdates());
}

TEST(HistoryTest, SequentialWritersAreSerializable) {
  History h;
  h.RecordCommit(Txn(1, {{10, 0}}, {{10, 1}}));
  h.RecordCommit(Txn(2, {{10, 1}}, {{10, 2}}));
  h.RecordCommit(Txn(3, {{10, 2}}, {{10, 3}}));
  EXPECT_TRUE(h.IsSerializable());
  EXPECT_TRUE(h.NoLostUpdates());
}

TEST(HistoryTest, ClassicWriteSkewCycleIsDetected) {
  // T1 reads x@0 and writes y@1; T2 reads y@0 and writes x@1.
  // rw: T1 -> T2 (T1 read x@0, T2 installed x@1)
  // rw: T2 -> T1 (T2 read y@0, T1 installed y@1)  => cycle.
  History h;
  h.RecordCommit(Txn(1, {{1, 0}}, {{2, 1}}));
  h.RecordCommit(Txn(2, {{2, 0}}, {{1, 1}}));
  EXPECT_FALSE(h.IsSerializable());
}

TEST(HistoryTest, LostUpdateCycleIsDetected) {
  // Both transactions read x@0 and both "increment": versions 1 and 2.
  // rw: T1 -> T2's write? T1 read x@0, next writer after 0 is T1 itself...
  // Edges: T1 reads x@0 -> writer of x@1 (T1, self, skipped) — model the
  // anomaly as both reading 0 with installs 1 and 2:
  // readers_of[0] = {T1, T2}; writer_of[1]=T1, writer_of[2]=T2.
  // rw: T2(read 0) -> writer(1)=T1; ww: T1 -> T2; wr: none.
  // T2 -> T1 -> T2  => cycle.
  History h;
  h.RecordCommit(Txn(1, {{1, 0}}, {{1, 1}}));
  h.RecordCommit(Txn(2, {{1, 0}}, {{1, 2}}));
  EXPECT_FALSE(h.IsSerializable());
}

TEST(HistoryTest, ReadOnlyTransactionsAlwaysSerializable) {
  History h;
  h.RecordCommit(Txn(1, {{1, 0}, {2, 0}}, {}));
  h.RecordCommit(Txn(2, {{2, 0}, {3, 0}}, {}));
  EXPECT_TRUE(h.IsSerializable());
}

TEST(HistoryTest, ConcurrentDisjointWritersAreSerializable) {
  History h;
  h.RecordCommit(Txn(1, {{1, 0}}, {{1, 1}}));
  h.RecordCommit(Txn(2, {{2, 0}}, {{2, 1}}));
  EXPECT_TRUE(h.IsSerializable());
}

TEST(HistoryTest, DuplicateVersionInstallIsALostUpdate) {
  History h;
  h.RecordCommit(Txn(1, {}, {{1, 1}}));
  h.RecordCommit(Txn(2, {}, {{1, 1}}));  // same version twice: overwrite
  EXPECT_FALSE(h.NoLostUpdates());
}

TEST(HistoryTest, VersionGapIsALostUpdate) {
  History h;
  h.RecordCommit(Txn(1, {}, {{1, 1}}));
  h.RecordCommit(Txn(2, {}, {{1, 3}}));  // version 2 vanished
  EXPECT_FALSE(h.NoLostUpdates());
}

TEST(HistoryTest, LongChainWithSharedReadersIsSerializable) {
  History h;
  for (storage::Version v = 0; v < 50; ++v) {
    h.RecordCommit(Txn(100 + v, {{7, v}}, {{7, v + 1}}));
    h.RecordCommit(Txn(200 + v, {{7, v + 1}}, {}));  // reader of v+1
  }
  EXPECT_TRUE(h.IsSerializable());
  EXPECT_TRUE(h.NoLostUpdates());
}

TEST(HistoryTest, ThreeWayCycleIsDetected) {
  // T1: r(x@0) w(y@1); T2: r(y@0) w(z@1); T3: r(z@0) w(x@1).
  History h;
  h.RecordCommit(Txn(1, {{1, 0}}, {{2, 1}}));
  h.RecordCommit(Txn(2, {{2, 0}}, {{3, 1}}));
  h.RecordCommit(Txn(3, {{3, 0}}, {{1, 1}}));
  EXPECT_FALSE(h.IsSerializable());
}

}  // namespace
}  // namespace psoodb::core
