// Tests for the cross-component protocol invariant checker
// (src/check/invariants.h):
//
//  * clean high-contention runs for every protocol leave zero violations
//    (and the checker demonstrably ran: sweeps + hook checks happened);
//  * a seeded protocol bug -- granting write permission without draining
//    the callback batch (SystemParams::test_skip_callback_drain) -- is
//    caught, both in fail-fast mode (process aborts with full context) and
//    in recording mode (violations are reported at run end);
//  * deadlock cycles that form *through callback blockers* (kInUse replies
//    feeding CallbackBatch::new_blockers) are detected and resolved without
//    tripping any invariant;
//  * copy tables and lock tables stay coherent after deadlock aborts;
//  * PS-WT token handoffs under size-changing updates leave no uncommitted
//    growth on a clean page frame.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "config/params.h"
#include "core/server.h"
#include "core/system.h"
#include "check/invariants.h"

namespace psoodb::core {
namespace {

using config::Locality;
using config::Protocol;
using config::SystemParams;
using config::WorkloadParams;

RunConfig QuickRun(int commits) {
  RunConfig r;
  r.warmup_commits = 20;
  r.measure_commits = commits;
  r.record_history = true;
  return r;
}

// Asserts the checker ran and found nothing; dumps the report on failure.
void ExpectClean(System& system, const std::string& label) {
  check::InvariantChecker* inv = system.invariants();
  ASSERT_NE(inv, nullptr) << label;
  EXPECT_GT(inv->sweeps_run(), 0u) << label;
  EXPECT_GT(inv->checks_run(), 0u) << label;
  EXPECT_TRUE(inv->ok()) << label << ": " << inv->violations().size()
                         << " violation(s), first: "
                         << (inv->violations().empty()
                                 ? std::string("<none>")
                                 : inv->violations().front().what);
  if (!inv->ok()) inv->Report(stderr);
}

// --- Clean runs --------------------------------------------------------------

TEST(InvariantCheckerTest, CleanUnderHighContentionAllProtocols) {
  for (Protocol p : config::AllProtocolsExtended()) {
    SystemParams sys;
    sys.num_clients = 6;
    sys.db_pages = 200;
    sys.seed = 13;
    sys.invariant_checks = true;
    sys.invariant_event_period = 200;  // sweep often; runs are short
    auto w = config::MakeHicon(sys, Locality::kHigh, 0.3);
    System system(p, sys, w);
    RunResult r = system.Run(QuickRun(150));
    const std::string label = config::ProtocolName(p);
    EXPECT_FALSE(r.stalled) << label;
    EXPECT_TRUE(r.serializable) << label << ": " << r.history_violation;
    ExpectClean(system, label);
  }
}

TEST(InvariantCheckerTest, CleanUnderFalseSharingWithDeEscalation) {
  // Interleaved PRIVATE forces PS-AA through its de-escalation path, which
  // has dedicated hook checks (OnDeEscalationRequested / OnDeEscalated).
  SystemParams sys;
  sys.num_clients = 4;
  sys.seed = 11;
  sys.invariant_checks = true;
  sys.invariant_event_period = 200;
  auto w = config::MakeInterleavedPrivate(sys, 0.3);
  System system(Protocol::kPSAA, sys, w);
  RunResult r = system.Run(QuickRun(120));
  EXPECT_FALSE(r.stalled);
  EXPECT_GT(r.counters.deescalations, 0u)
      << "workload failed to exercise de-escalation";
  ExpectClean(system, "PS-AA interleaved");
}

TEST(InvariantCheckerTest, CleanUnderTokenHandoffsWithGrowingUpdates) {
  // Interleaved PRIVATE hands PS-WT write tokens back and forth between
  // client pairs, and every update grows its object: each recall must flush
  // the page's growth with its dirty slots, so that the growth commits with
  // the transaction that made it instead of staying on the clean frame.
  SystemParams sys;
  sys.num_clients = 4;
  sys.seed = 7;
  sys.size_change_prob = 1.0;
  sys.invariant_checks = true;
  sys.invariant_event_period = 200;
  auto w = config::MakeInterleavedPrivate(sys, 0.3);
  System system(Protocol::kPSWT, sys, w);
  RunResult r = system.Run(QuickRun(150));
  EXPECT_FALSE(r.stalled);
  EXPECT_TRUE(r.serializable) << r.history_violation;
  EXPECT_GT(r.counters.token_transfers, 0u)
      << "workload failed to hand off write tokens";
  ExpectClean(system, "PS-WT growing updates");
}

// --- Seeded bug: write grant without callback drain --------------------------

SystemParams BuggySys() {
  SystemParams sys;
  sys.num_clients = 6;
  sys.db_pages = 200;
  sys.seed = 13;
  sys.invariant_checks = true;
  sys.invariant_event_period = 100;
  sys.test_skip_callback_drain = true;  // the seeded protocol bug
  return sys;
}

using InvariantCheckerDeathTest = ::testing::Test;

TEST(InvariantCheckerDeathTest, FailFastAbortsOnSkippedCallbackDrain) {
  // In fail-fast mode the first violation aborts the process through
  // util::CheckFail, before the corrupted state can crash the simulator in
  // some less diagnosable way downstream.
  for (Protocol p : {Protocol::kPS, Protocol::kPSOO}) {
    SystemParams sys = BuggySys();
    sys.invariant_failfast = true;
    auto w = config::MakeHicon(sys, Locality::kHigh, 0.3);
    EXPECT_DEATH(
        {
          System system(p, sys, w);
          system.Run(QuickRun(150));
        },
        "PSOODB CHECK failed")
        << config::ProtocolName(p);
  }
}

TEST(InvariantCheckerTest, RecordingModeReportsSkippedCallbackDrain) {
  // Recording mode must survive the run and surface the violations; the
  // drain hook fires on every undrained batch, so expect plenty.
  SystemParams sys = BuggySys();
  auto w = config::MakeHicon(sys, Locality::kHigh, 0.3);
  System system(Protocol::kPS, sys, w);
  RunConfig rc = QuickRun(150);
  rc.record_history = false;  // corrupted runs may violate serializability
  system.Run(rc);
  check::InvariantChecker* inv = system.invariants();
  ASSERT_NE(inv, nullptr);
  EXPECT_FALSE(inv->ok());
  ASSERT_FALSE(inv->violations().empty());
  // The first complaint must come from the callback-drain invariant, not a
  // downstream symptom.
  EXPECT_NE(inv->violations().front().what.find("callback"), std::string::npos)
      << inv->violations().front().what;
}

// --- Deadlock cycles through callback blockers -------------------------------

// Two clients read objects A and B (caching both = holding read permission),
// then each updates "the other's" object. The write-permission callbacks hit
// an object the remote transaction has read, so the reply is kInUse: the
// waits-for edges enter the detector via CallbackBatch::new_blockers, not
// via a lock-queue wait, and the resulting 2-cycle must still be detected.
WorkloadParams CrossingWritesWorkload(const SystemParams& sys) {
  WorkloadParams w;
  w.name = "crossing-writes";
  w.custom_max_pages = 4;
  const int opp = sys.objects_per_page;
  w.custom_generator = [opp](storage::ClientId client, std::uint64_t) {
    const storage::ObjectId a = 10 * opp;  // page 10, slot 0
    const storage::ObjectId b = 11 * opp;  // page 11, slot 0
    std::vector<config::CustomAccess> refs;
    refs.push_back({a, false});
    refs.push_back({b, false});
    // Client 0 updates B (which client 1 also read), client 1 updates A.
    refs.push_back({client % 2 == 0 ? b : a, true});
    return refs;
  };
  return w;
}

// --- Seeded bug: abort path that leaks the transaction's locks ---------------

TEST(InvariantCheckerDeathTest, FailFastAbortsOnSkippedAbortRelease) {
  // test_skip_abort_release makes HandleAbort leave every lock behind — the
  // runtime twin of the analyzer's seeded abort-path lock leak. The
  // OnAbortReleased hook fires right after the (skipped) release, so the
  // first deadlock abort trips fail-fast with the leak named explicitly.
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 200;
  sys.seed = 5;
  sys.invariant_checks = true;
  sys.invariant_failfast = true;
  sys.invariant_event_period = 50;
  sys.test_skip_abort_release = true;
  WorkloadParams w = CrossingWritesWorkload(sys);
  EXPECT_DEATH(
      {
        System system(Protocol::kPS, sys, w);
        system.Run(QuickRun(60));
      },
      "PSOODB CHECK failed");
}

TEST(InvariantCheckerTest, RecordingModeReportsSkippedAbortRelease) {
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 200;
  sys.seed = 5;
  sys.invariant_checks = true;
  sys.invariant_event_period = 50;
  sys.test_skip_abort_release = true;
  WorkloadParams w = CrossingWritesWorkload(sys);
  System system(Protocol::kPS, sys, w);
  RunConfig rc = QuickRun(60);
  rc.record_history = false;  // corrupted runs may violate serializability
  system.Run(rc);
  check::InvariantChecker* inv = system.invariants();
  ASSERT_NE(inv, nullptr);
  EXPECT_FALSE(inv->ok());
  ASSERT_FALSE(inv->violations().empty());
  EXPECT_NE(inv->violations().front().what.find("abort-path lock leak"),
            std::string::npos)
      << inv->violations().front().what;
}

TEST(InvariantCheckerTest, DetectsDeadlockThroughCallbackBlockers) {
  for (Protocol p : {Protocol::kPS, Protocol::kPSOO, Protocol::kOS}) {
    SystemParams sys;
    sys.num_clients = 2;
    sys.db_pages = 200;
    sys.seed = 5;
    sys.invariant_checks = true;
    sys.invariant_event_period = 50;
    WorkloadParams w = CrossingWritesWorkload(sys);
    System system(p, sys, w);
    RunResult r = system.Run(QuickRun(60));
    const std::string label = config::ProtocolName(p);
    EXPECT_FALSE(r.stalled) << label;
    EXPECT_GT(r.deadlocks, 0u)
        << label << ": workload failed to produce callback-blocker cycles";
    EXPECT_GT(r.counters.aborts, 0u) << label;
    EXPECT_TRUE(r.serializable) << label << ": " << r.history_violation;
    ExpectClean(system, label);
  }
}

// --- Coherence after aborts --------------------------------------------------

TEST(InvariantCheckerTest, TablesStayCoherentAfterDeadlockAborts) {
  // After a deadlock-heavy run every abort has torn down its locks and
  // copy-table registrations; the final sweep plus an explicit lock-table
  // audit must find nothing left behind.
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 200;
  sys.seed = 9;
  sys.invariant_checks = true;
  sys.invariant_event_period = 100;
  WorkloadParams w = CrossingWritesWorkload(sys);
  System system(Protocol::kPSOO, sys, w);
  RunResult r = system.Run(QuickRun(80));
  EXPECT_FALSE(r.stalled);
  EXPECT_GT(r.counters.aborts, 0u) << "run produced no aborts to audit";
  ExpectClean(system, "post-abort");
  for (int s = 0; s < system.num_servers(); ++s) {
    auto problems = system.server(s).lock_manager().CheckCoherence();
    EXPECT_TRUE(problems.empty())
        << "server " << s << ": " << problems.front();
  }
}

TEST(InvariantCheckerTest, EnvVarEnablesChecker) {
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 200;
  ASSERT_EQ(setenv("PSOODB_INVARIANTS", "1", 1), 0);
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.1);
  System system(Protocol::kPS, sys, w);
  unsetenv("PSOODB_INVARIANTS");
  EXPECT_NE(system.invariants(), nullptr);
  System off(Protocol::kPS, sys, w);
  EXPECT_EQ(off.invariants(), nullptr);
}

}  // namespace
}  // namespace psoodb::core
