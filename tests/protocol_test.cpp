// End-to-end protocol tests: every protocol, on several workloads, must make
// progress, keep every client cache copy valid (callback locking's
// guarantee), produce conflict-serializable histories, and never lose an
// update when concurrently updated page copies are merged.

#include <gtest/gtest.h>

#include <string>

#include "config/params.h"
#include "core/system.h"

namespace psoodb::core {
namespace {

using config::Locality;
using config::Protocol;
using config::SystemParams;
using config::WorkloadParams;

SystemParams SmallSys() {
  SystemParams p;
  p.num_clients = 4;
  p.db_pages = 200;
  p.seed = 7;
  // Run every protocol test under the cross-component invariant checker;
  // fail-fast because RunSimulation destroys the System (and with it any
  // recorded violations) before the test could inspect them.
  p.invariant_checks = true;
  p.invariant_failfast = true;
  return p;
}

RunConfig QuickRun() {
  RunConfig r;
  r.warmup_commits = 20;
  r.measure_commits = 120;
  r.record_history = true;
  return r;
}

void ExpectCorrect(const RunResult& r, const std::string& label) {
  EXPECT_FALSE(r.stalled) << label << ": simulation stalled (protocol hang)";
  EXPECT_GE(r.measured_commits, 100u) << label;
  EXPECT_GT(r.throughput, 0.0) << label;
  EXPECT_EQ(r.counters.validity_violations, 0u)
      << label << ": stale cached object was read";
  EXPECT_TRUE(r.serializable)
      << label << ": non-serializable history: " << r.history_violation;
  EXPECT_TRUE(r.no_lost_updates)
      << label << ": lost update detected: " << r.history_violation;
}

struct Case {
  Protocol protocol;
  int workload;  // 0 hotcold, 1 uniform, 2 hicon, 3 private, 4 interleaved
  double write_prob;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  static const char* kWorkloads[] = {"HotCold", "Uniform", "Hicon", "Private",
                                     "Interleaved"};
  std::string name = config::ProtocolName(info.param.protocol);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += "_";
  name += kWorkloads[info.param.workload];
  name += "_w";
  name += std::to_string(static_cast<int>(info.param.write_prob * 100));
  return name;
}

WorkloadParams MakeWorkload(const SystemParams& sys, int which,
                            double write_prob) {
  switch (which) {
    case 0:
      return config::MakeHotCold(sys, Locality::kLow, write_prob);
    case 1:
      return config::MakeUniform(sys, Locality::kHigh, write_prob);
    case 2:
      return config::MakeHicon(sys, Locality::kHigh, write_prob);
    case 3:
      return config::MakePrivate(sys, write_prob);
    default:
      return config::MakeInterleavedPrivate(sys, write_prob);
  }
}

class ProtocolCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(ProtocolCorrectness, RunsSerializably) {
  const Case& c = GetParam();
  SystemParams sys = SmallSys();
  if (c.workload >= 3) sys.db_pages = 1250;  // PRIVATE needs full layout
  WorkloadParams w = MakeWorkload(sys, c.workload, c.write_prob);
  RunResult r = RunSimulation(c.protocol, sys, w, QuickRun());
  ExpectCorrect(r, CaseName(::testing::TestParamInfo<Case>(c, 0)));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolCorrectness,
    ::testing::Values(
        // Read-only and moderate/high write mixes for every protocol.
        Case{Protocol::kPS, 1, 0.0}, Case{Protocol::kPS, 0, 0.2},
        Case{Protocol::kPS, 2, 0.3}, Case{Protocol::kOS, 1, 0.0},
        Case{Protocol::kOS, 0, 0.2}, Case{Protocol::kOS, 2, 0.3},
        Case{Protocol::kPSOO, 1, 0.0}, Case{Protocol::kPSOO, 0, 0.2},
        Case{Protocol::kPSOO, 2, 0.3}, Case{Protocol::kPSOA, 1, 0.0},
        Case{Protocol::kPSOA, 0, 0.2}, Case{Protocol::kPSOA, 2, 0.3},
        Case{Protocol::kPSAA, 1, 0.0}, Case{Protocol::kPSAA, 0, 0.2},
        Case{Protocol::kPSAA, 2, 0.3}, Case{Protocol::kPS, 3, 0.2},
        Case{Protocol::kPSAA, 3, 0.2}, Case{Protocol::kPSOO, 4, 0.2},
        Case{Protocol::kPSAA, 4, 0.2}, Case{Protocol::kOS, 4, 0.2}),
    CaseName);

TEST(ProtocolBehaviorTest, ReadOnlyWorkloadSendsNoCallbacks) {
  SystemParams sys = SmallSys();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.0);
  for (Protocol p : config::AllProtocols()) {
    RunResult r = RunSimulation(p, sys, w, QuickRun());
    EXPECT_EQ(r.counters.callbacks_sent, 0u) << config::ProtocolName(p);
    EXPECT_EQ(r.counters.write_requests, 0u) << config::ProtocolName(p);
    EXPECT_EQ(r.deadlocks, 0u) << config::ProtocolName(p);
  }
}

// Clients record read versions only when a history is kept, so this pins
// that a kept history gets them: without reads, the serializability check
// would see no read edges and every test above would still pass. PS and OS
// cover both commit paths.
TEST(ProtocolBehaviorTest, RecordedHistoryHoldsCommittedReadVersions) {
  SystemParams sys = SmallSys();
  for (Protocol p : {Protocol::kPS, Protocol::kOS}) {
    System s(p, sys, config::MakeHotCold(sys, Locality::kLow, 0.2));
    ExpectCorrect(s.Run(QuickRun()), config::ProtocolName(p));
    std::size_t reads = 0, newer_than_initial = 0;
    for (const CommittedTxn& t : s.history().txns()) {
      reads += t.reads.size();
      for (const auto& [oid, v] : t.reads) {
        EXPECT_LE(v, s.db().committed_version(oid));
        newer_than_initial += v > 0;
      }
    }
    EXPECT_GE(s.history().size(), 120u) << config::ProtocolName(p);
    EXPECT_GT(reads, s.history().size()) << config::ProtocolName(p);
    EXPECT_GT(newer_than_initial, 0u) << config::ProtocolName(p);
  }
}

TEST(ProtocolBehaviorTest, PsAaGrantsPageLocksWithoutContention) {
  // PRIVATE has zero data contention: PS-AA must behave like PS, granting
  // page-level write locks (no object-level de-escalation).
  SystemParams sys;
  sys.num_clients = 4;
  sys.seed = 11;
  auto w = config::MakePrivate(sys, 0.2);
  RunResult r = RunSimulation(Protocol::kPSAA, sys, w, QuickRun());
  EXPECT_GT(r.counters.page_lock_grants, 0u);
  EXPECT_EQ(r.counters.deescalations, 0u);
  EXPECT_EQ(r.counters.object_lock_grants, 0u);
}

TEST(ProtocolBehaviorTest, PsAaDeEscalatesUnderFalseSharing) {
  // Interleaved PRIVATE is pure false sharing: PS-AA must fall back to
  // object-level operation on the contended pages.
  SystemParams sys;
  sys.num_clients = 4;
  sys.seed = 11;
  auto w = config::MakeInterleavedPrivate(sys, 0.3);
  RunResult r = RunSimulation(Protocol::kPSAA, sys, w, QuickRun());
  EXPECT_GT(r.counters.deescalations + r.counters.object_lock_grants, 0u);
}

TEST(ProtocolBehaviorTest, ObjectServerShipsObjectsNotPages) {
  SystemParams sys = SmallSys();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.0);
  RunResult rps = RunSimulation(Protocol::kPS, sys, w, QuickRun());
  RunResult ros = RunSimulation(Protocol::kOS, sys, w, QuickRun());
  // OS sends far more messages (one per object rather than per page)...
  EXPECT_GT(ros.counters.msgs_total, rps.counters.msgs_total * 2);
  EXPECT_GT(ros.counters.read_requests, rps.counters.read_requests * 2);
  // ...but each of its data ships is object-sized, not page-sized.
  double os_bytes_per_data = static_cast<double>(ros.counters.bytes_sent) /
                             static_cast<double>(ros.counters.msgs_total);
  double ps_bytes_per_data = static_cast<double>(rps.counters.bytes_sent) /
                             static_cast<double>(rps.counters.msgs_total);
  EXPECT_LT(os_bytes_per_data, ps_bytes_per_data);
}

TEST(ProtocolBehaviorTest, HotColdClientCachesConverge) {
  // With 25%-of-DB caches and an 80/20 private skew, hit rates climb well
  // above the cold-start level for the page-family protocols.
  SystemParams sys;
  sys.num_clients = 4;
  sys.seed = 3;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.05);
  RunResult r = RunSimulation(Protocol::kPS, sys, w, QuickRun());
  double hit_rate =
      static_cast<double>(r.counters.cache_hits) /
      static_cast<double>(r.counters.cache_hits + r.counters.cache_misses);
  EXPECT_GT(hit_rate, 0.5);
}

TEST(ProtocolBehaviorTest, HiconHighWriteCausesDeadlocksInObjectLocking) {
  // Section 5.4: under saturated page contention with object-level locking,
  // deadlocks/aborts appear (they are the reason PS beats PS-AA there).
  SystemParams sys;
  sys.num_clients = 8;
  sys.db_pages = 300;
  sys.seed = 5;
  auto w = config::MakeHicon(sys, Locality::kHigh, 0.3);
  RunConfig rc = QuickRun();
  rc.measure_commits = 300;
  RunResult r = RunSimulation(Protocol::kPSAA, sys, w, rc);
  EXPECT_GT(r.counters.aborts + r.deadlocks, 0u);
  EXPECT_EQ(r.counters.validity_violations, 0u);
  EXPECT_TRUE(r.serializable) << r.history_violation;
}

// HICON at low locality with adaptive callbacks, where callbacks often cross
// a fresh ship to the same client: PS-OA and PS-AA must keep zero validity
// violations and a serializable history. These runs do not detect a
// callback round that drops copies without the epoch check (the wrong
// drops they make go unnoticed); SystemEdgeTest.
// CustomWorkloadRunsCorrectlyEndToEnd, with its invariant checker, does.
class CallbackUnregisterRace : public ::testing::TestWithParam<int> {};

TEST_P(CallbackUnregisterRace, PageCopyTableStaysExact) {
  SystemParams sys;
  sys.seed = static_cast<std::uint64_t>(GetParam());
  auto w = config::MakeHicon(sys, Locality::kLow, 0.05);
  RunConfig rc;
  rc.warmup_commits = 100;
  rc.measure_commits = 500;
  rc.record_history = true;
  for (Protocol p : {Protocol::kPSOA, Protocol::kPSAA}) {
    RunResult r = RunSimulation(p, sys, w, rc);
    EXPECT_EQ(r.counters.validity_violations, 0u) << config::ProtocolName(p);
    EXPECT_TRUE(r.serializable)
        << config::ProtocolName(p) << ": " << r.history_violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CallbackUnregisterRace,
                         ::testing::Values(1, 17, 42));

TEST(ProtocolBehaviorTest, DeterministicAcrossRuns) {
  SystemParams sys = SmallSys();
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.15);
  RunResult a = RunSimulation(Protocol::kPSAA, sys, w, QuickRun());
  RunResult b = RunSimulation(Protocol::kPSAA, sys, w, QuickRun());
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.counters.msgs_total, b.counters.msgs_total);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace psoodb::core
