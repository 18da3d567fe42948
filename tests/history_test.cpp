// Unit tests for the committed-history serializability and lost-update
// checkers (which the protocol integration tests rely on). Includes known
// serializable and non-serializable histories, the witness text each check
// writes when it fails, and a seeded model check against the map-based
// algorithm the sorted-install checker replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/history.h"

namespace psoodb::core {
namespace {

using storage::ObjectId;
using storage::Version;

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
  std::string why;
  EXPECT_FALSE(h.IsSerializable(&why));
  EXPECT_EQ(why, "conflict cycle: txn 1 -> txn 2 -> txn 1");
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
  std::string why;
  EXPECT_FALSE(h.NoLostUpdates(&why));
  EXPECT_EQ(why, "object 1: version 1 installed twice");
}

TEST(HistoryTest, VersionGapIsALostUpdate) {
  History h;
  h.RecordCommit(Txn(1, {}, {{1, 1}}));
  h.RecordCommit(Txn(2, {}, {{1, 3}}));  // version 2 vanished
  h.RecordCommit(Txn(3, {}, {{2, 1}, {2, 1}}));  // later in object order
  std::string why;
  EXPECT_FALSE(h.NoLostUpdates(&why));
  EXPECT_EQ(why, "object 1: version 1 then 3");
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
  // rw edges, in cycle order: T1 read x@0 and T3 installed x@1; T3 read
  // z@0 and T2 installed z@1; T2 read y@0 and T1 installed y@1.
  std::string why;
  EXPECT_FALSE(h.IsSerializable(&why));
  EXPECT_EQ(why, "conflict cycle: txn 1 -> txn 3 -> txn 2 -> txn 1");
}

TEST(HistoryTest, PassingChecksLeaveTheWitnessAlone) {
  History h;
  h.RecordCommit(Txn(1, {{1, 0}}, {{1, 1}}));
  h.RecordCommit(Txn(2, {{1, 1}}, {{1, 2}}));
  std::string why = "untouched";
  EXPECT_TRUE(h.IsSerializable(&why));
  EXPECT_TRUE(h.NoLostUpdates(&why));
  EXPECT_EQ(why, "untouched");
}

TEST(HistoryTest, AppendKeepsRecordOrder) {
  History a;
  History b;
  a.RecordCommit(Txn(1, {}, {{1, 1}}));
  b.RecordCommit(Txn(2, {}, {{1, 2}}));
  b.RecordCommit(Txn(3, {}, {{1, 3}}));
  a.Append(std::move(b));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.txns()[2].txn, 3u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(a.NoLostUpdates());
}

// --- Seeded model check --------------------------------------------------
//
// The reference is the checker's original algorithm: per-object maps from
// version to writer (the later commit in record order wins a version
// installed twice) and to readers, edge sets per transaction, and a three-
// colour DFS. Ordered containers keep it deterministic.

using Adjacency = std::vector<std::set<std::size_t>>;

Adjacency ReferenceGraph(const std::vector<CommittedTxn>& txns) {
  struct ObjectHistory {
    std::map<Version, std::size_t> writer_of;
    std::map<Version, std::vector<std::size_t>> readers_of;
  };
  std::map<ObjectId, ObjectHistory> objects;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    for (const auto& [oid, v] : txns[i].writes) objects[oid].writer_of[v] = i;
    for (const auto& [oid, v] : txns[i].reads) {
      objects[oid].readers_of[v].push_back(i);
    }
  }
  Adjacency adj(txns.size());
  auto add_edge = [&](std::size_t a, std::size_t b) {
    if (a != b) adj[a].insert(b);
  };
  for (const auto& [oid, oh] : objects) {
    for (auto it = oh.writer_of.begin(); it != oh.writer_of.end(); ++it) {
      auto next = std::next(it);
      if (next != oh.writer_of.end()) add_edge(it->second, next->second);
    }
    for (const auto& [v, readers] : oh.readers_of) {
      if (v > 0) {
        auto w = oh.writer_of.find(v);
        if (w != oh.writer_of.end()) {
          for (std::size_t r : readers) add_edge(w->second, r);
        }
      }
      auto nw = oh.writer_of.upper_bound(v);
      if (nw != oh.writer_of.end()) {
        for (std::size_t r : readers) add_edge(r, nw->second);
      }
    }
  }
  return adj;
}

bool ReferenceHasCycle(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<int> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<std::pair<std::size_t, bool>> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    stack.emplace_back(root, false);
    while (!stack.empty()) {
      auto [v, processed] = stack.back();
      stack.pop_back();
      if (processed) {
        color[v] = 2;
        continue;
      }
      if (color[v] == 1) continue;
      color[v] = 1;
      stack.emplace_back(v, true);
      for (std::size_t w : adj[v]) {
        if (color[w] == 1) return true;
        if (color[w] == 0) stack.emplace_back(w, false);
      }
    }
  }
  return false;
}

bool ReferenceNoLostUpdates(const std::vector<CommittedTxn>& txns) {
  std::map<ObjectId, std::vector<Version>> writes;
  for (const auto& t : txns) {
    for (const auto& [oid, v] : t.writes) writes[oid].push_back(v);
  }
  for (auto& [oid, vs] : writes) {
    std::sort(vs.begin(), vs.end());
    for (std::size_t i = 1; i < vs.size(); ++i) {
      if (vs[i] != vs[i - 1] + 1) return false;
    }
  }
  return true;
}

/// Txn ids are kIdBase + record index.
constexpr storage::TxnId kIdBase = 100;

/// A small random history over a few objects: mostly in-order reads and
/// next-version installs, with stale reads (conflict cycles), reads of
/// version 0 and of versions nobody installed, duplicate installs and
/// version gaps mixed in.
History RandomHistory(std::mt19937_64& rng) {
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const std::size_t objects = 1 + pick(4);
  std::vector<Version> cur(objects, 0);
  History h;
  const std::size_t txns = 1 + pick(8);
  for (std::size_t i = 0; i < txns; ++i) {
    CommittedTxn t;
    t.txn = kIdBase + i;
    for (std::uint64_t k = pick(4); k > 0; --k) {
      const ObjectId o = static_cast<ObjectId>(pick(objects));
      const Version c = cur[static_cast<std::size_t>(o)];
      const std::uint64_t roll = pick(20);
      const Version v = roll < 12   ? c
                        : roll < 16 ? pick(c + 1)  // stale, 0 included
                        : roll < 18 ? 0
                                    : c + 1 + pick(2);  // not installed yet
      t.reads.emplace_back(o, v);
    }
    for (std::uint64_t k = pick(3); k > 0; --k) {
      const ObjectId o = static_cast<ObjectId>(pick(objects));
      Version& c = cur[static_cast<std::size_t>(o)];
      const std::uint64_t roll = pick(16);
      const Version v = roll < 13   ? ++c
                        : roll < 14 ? c           // installed again
                        : roll < 15 ? (c += 2)    // gap
                                    : pick(c + 3);
      t.writes.emplace_back(o, v);
    }
    h.RecordCommit(std::move(t));
  }
  return h;
}

/// Parses "conflict cycle: txn a -> txn b -> ... -> txn a" into indices.
std::vector<std::size_t> ParseCycle(const std::string& why) {
  std::istringstream in(why);
  std::string word;
  in >> word;
  EXPECT_EQ(word, "conflict");
  in >> word;
  EXPECT_EQ(word, "cycle:");
  std::vector<std::size_t> cycle;
  while (in >> word) {
    EXPECT_EQ(word, "txn");
    storage::TxnId id = 0;
    in >> id;
    EXPECT_GE(id, kIdBase);
    cycle.push_back(static_cast<std::size_t>(id - kIdBase));
    if (in >> word) {
      EXPECT_EQ(word, "->");
    }
  }
  return cycle;
}

/// Checks a cycle witness against the reference graph: every txn is
/// recorded, the path closes on itself with no other repeat, and each step
/// is a conflict edge.
void ExpectCycleWitness(const std::string& why, const Adjacency& adj) {
  const std::vector<std::size_t> cycle = ParseCycle(why);
  ASSERT_GE(cycle.size(), 3u) << why;
  EXPECT_EQ(cycle.front(), cycle.back()) << why;
  EXPECT_EQ(std::set<std::size_t>(cycle.begin(), cycle.end()).size(),
            cycle.size() - 1)
      << why;
  for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
    ASSERT_LT(cycle[i], adj.size()) << why;
    EXPECT_EQ(adj[cycle[i]].count(cycle[i + 1]), 1u) << why;
  }
}

/// Checks a lost-update witness against the installs it names.
void ExpectLostUpdateWitness(const std::string& why,
                             const std::vector<CommittedTxn>& txns) {
  std::map<ObjectId, std::multiset<Version>> installs;
  for (const auto& t : txns) {
    for (const auto& [oid, v] : t.writes) installs[oid].insert(v);
  }
  std::istringstream in(why);
  std::string word;
  ObjectId o = -1;
  Version v = 0;
  in >> word >> o >> word >> word >> v >> word;
  const std::multiset<Version>& vs = installs[o];
  if (word == "installed") {
    EXPECT_GE(vs.count(v), 2u) << why;
    return;
  }
  ASSERT_EQ(word, "then") << why;
  Version next = 0;
  in >> next;
  EXPECT_EQ(vs.count(v), 1u) << why;
  EXPECT_GE(vs.count(next), 1u) << why;
  EXPECT_GT(next, v + 1) << why;
  EXPECT_EQ(vs.lower_bound(v + 1), vs.find(next)) << why;
}

TEST(HistoryTest, MatchesTheMapBasedCheckerOnRandomHistories) {
  std::mt19937_64 rng(20240611);
  constexpr int kHistories = 20000;
  int serializable = 0;
  int no_lost = 0;
  for (int n = 0; n < kHistories; ++n) {
    const History h = RandomHistory(rng);
    const Adjacency adj = ReferenceGraph(h.txns());
    std::string cycle;
    std::string lost;
    const bool ser = h.IsSerializable(&cycle);
    const bool nlu = h.NoLostUpdates(&lost);
    ASSERT_EQ(ser, !ReferenceHasCycle(adj)) << "history " << n;
    ASSERT_EQ(nlu, ReferenceNoLostUpdates(h.txns())) << "history " << n;
    EXPECT_EQ(cycle.empty(), ser) << "history " << n;
    EXPECT_EQ(lost.empty(), nlu) << "history " << n;
    if (!ser) ExpectCycleWitness(cycle, adj);
    if (!nlu) ExpectLostUpdateWitness(lost, h.txns());
    serializable += ser ? 1 : 0;
    no_lost += nlu ? 1 : 0;
  }
  // Both verdicts of both checks are well represented.
  EXPECT_GT(serializable, kHistories / 5);
  EXPECT_LT(serializable, kHistories * 4 / 5);
  EXPECT_GT(no_lost, kHistories / 5);
  EXPECT_LT(no_lost, kHistories * 4 / 5);
}

}  // namespace
}  // namespace psoodb::core
