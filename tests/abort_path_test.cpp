// Scripted deadlocks pinned end to end. Two clients whose first
// transactions deadlock run through the full system; each case fixes the
// exact abort, deadlock, message and event counts and the order of the
// trace records around the abort. A change to how an abort travels — the
// detector's verdict, the lock wait or callback round that stops, the
// handler's aborted reply, the client's abort protocol and restart — that
// moves any output shows here.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "config/params.h"
#include "core/system.h"

namespace psoodb::core {
namespace {

using config::Protocol;
using config::SystemParams;
using storage::ClientId;
using storage::ObjectId;

SystemParams TwoClients() {
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 50;
  sys.trace = true;
  return sys;
}

/// Both clients' first transactions, one reference string each; every later
/// transaction reads one object of a page no other client touches.
config::WorkloadParams Script(
    const SystemParams& sys,
    std::vector<std::vector<config::CustomAccess>> first) {
  config::WorkloadParams w;
  w.name = "scripted";
  w.custom_max_pages = 2;
  const int opp = sys.objects_per_page;
  w.custom_generator = [opp, first](ClientId client, std::uint64_t ordinal) {
    if (ordinal == 0) return first[static_cast<std::size_t>(client)];
    return std::vector<config::CustomAccess>{
        {static_cast<ObjectId>(30 + client) * opp, false}};
  };
  return w;
}

ObjectId Oid(const SystemParams& sys, int page, int slot) {
  return static_cast<ObjectId>(page) * sys.objects_per_page + slot;
}

/// Runs to the fourth commit: client 1's restarted transaction commits
/// second, between client 0's private reads.
RunResult RunScript(Protocol p, const SystemParams& sys,
                    const config::WorkloadParams& w) {
  RunConfig rc;
  rc.warmup_commits = 0;
  rc.measure_commits = 4;
  rc.record_history = true;
  return RunSimulation(p, sys, w, rc);
}

/// The trace's record kinds in emission order, keeping only the lock,
/// callback-round and transaction records an abort moves.
std::vector<std::string> AbortKinds(const std::string& jsonl) {
  static const char* const kKeep[] = {
      "txn_begin", "txn",         "txn_abort",  "txn_restart",
      "lock_wait", "lock_grant",  "lock_abort", "lock_release",
      "cb_round"};
  std::vector<std::string> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t k = line.find("\"k\":\"");
    if (k == std::string::npos) continue;
    const std::size_t b = k + 5;
    const std::string kind = line.substr(b, line.find('"', b) - b);
    for (const char* keep : kKeep) {
      if (kind == keep) {
        out.push_back(kind);
        break;
      }
    }
  }
  return out;
}

void ExpectClean(const RunResult& r) {
  EXPECT_FALSE(r.stalled);
  EXPECT_EQ(r.measured_commits, 4u);
  EXPECT_EQ(r.counters.validity_violations, 0u);
  EXPECT_TRUE(r.serializable) << r.history_violation;
  EXPECT_TRUE(r.no_lost_updates) << r.history_violation;
  EXPECT_EQ(r.trace_events_dropped, 0u);
}

/// The counts every case pins: one abort of one deadlock, and the messages
/// and events of the whole run.
void ExpectCounts(const RunResult& r, std::uint64_t msgs,
                  std::uint64_t events) {
  EXPECT_EQ(r.counters.aborts, 1u);
  EXPECT_EQ(r.deadlocks, 1u);
  EXPECT_EQ(r.counters.msgs_total, msgs);
  EXPECT_EQ(r.events, events);
}

/// Client 0 writes an object of page 10, then one of page 11; client 1 the
/// same objects in the other order. Each takes its first write lock, then
/// its read of the second object waits on the other's lock: the second wait
/// closes the cycle in the detector's OnWait, inside the server's lock wait.
config::WorkloadParams CrossedWrites(const SystemParams& sys) {
  const ObjectId a = Oid(sys, 10, 0);
  const ObjectId b = Oid(sys, 11, 0);
  return Script(sys, {{{a, true}, {b, true}}, {{b, true}, {a, true}}});
}

TEST(ScriptedDeadlock, ClosedInAPageLockWait) {
  const SystemParams sys = TwoClients();
  const RunResult r = RunScript(Protocol::kPS, sys, CrossedWrites(sys));
  ExpectClean(r);
  ExpectCounts(r, 37, 344);
  EXPECT_EQ(AbortKinds(r.trace_jsonl),
            (std::vector<std::string>{
                "lock_wait", "lock_wait", "lock_abort", "txn_abort",
                "lock_release", "lock_grant", "lock_release", "txn",
                "txn_begin", "txn_restart", "txn_begin", "txn", "txn_begin",
                "cb_round", "cb_round", "txn", "txn_begin", "txn",
                "txn_begin"}));
}

TEST(ScriptedDeadlock, ClosedInAnObjectLockWait) {
  const SystemParams sys = TwoClients();
  const RunResult r = RunScript(Protocol::kOS, sys, CrossedWrites(sys));
  ExpectClean(r);
  ExpectCounts(r, 37, 352);
  EXPECT_EQ(AbortKinds(r.trace_jsonl),
            (std::vector<std::string>{
                "lock_wait", "lock_wait", "lock_abort", "txn_abort",
                "lock_release", "lock_grant", "lock_release", "txn",
                "txn_begin", "txn", "txn_begin", "txn_restart", "txn_begin",
                "cb_round", "txn", "txn_begin", "cb_round", "txn",
                "txn_begin"}));
}

/// Each client reads an object the other then writes. Both write requests
/// take their object locks and call the other client back; each callback
/// finds the object in use by the other's transaction, and the second "in
/// use" reply closes the cycle inside a callback round. The handler's
/// aborted reply reaches the client, which aborts and restarts.
TEST(ScriptedDeadlock, ClosedInACallbackRound) {
  const SystemParams sys = TwoClients();
  const ObjectId x = Oid(sys, 10, 0);
  const ObjectId y = Oid(sys, 11, 1);
  const RunResult r = RunScript(
      Protocol::kPSOO, sys,
      Script(sys, {{{x, false}, {y, true}}, {{y, false}, {x, true}}}));
  ExpectClean(r);
  ExpectCounts(r, 36, 343);
  // No lock wait: the aborted round's span comes first.
  EXPECT_EQ(AbortKinds(r.trace_jsonl),
            (std::vector<std::string>{
                "cb_round", "txn_abort", "lock_release", "cb_round",
                "lock_release", "txn", "txn_begin", "txn", "txn_begin",
                "txn_restart", "txn_begin", "cb_round", "txn", "txn_begin",
                "lock_release", "txn", "txn_begin"}));
}

}  // namespace
}  // namespace psoodb::core
