// System-level edge cases: single client, tiny caches (heavy eviction),
// clustered access, think time, log-I/O toggle, scaled database,
// protocol-specific counter behaviors, the run state machine's exits, and
// validation of the environment overrides System reads at construction.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "config/params.h"
#include "core/system.h"
#include "scoped_env.h"

namespace psoodb::core {
namespace {

using config::Locality;
using config::Protocol;
using config::SystemParams;

RunConfig Quick(int commits = 100) {
  RunConfig rc;
  rc.warmup_commits = 20;
  rc.measure_commits = commits;
  rc.record_history = true;
  return rc;
}

void ExpectHealthy(const RunResult& r, const char* label) {
  EXPECT_FALSE(r.stalled) << label;
  EXPECT_GT(r.throughput, 0.0) << label;
  EXPECT_EQ(r.counters.validity_violations, 0u) << label;
  EXPECT_TRUE(r.serializable) << label << ": " << r.history_violation;
  EXPECT_TRUE(r.no_lost_updates) << label << ": " << r.history_violation;
}

TEST(SystemEdgeTest, SingleClientHasNoContention) {
  SystemParams sys;
  sys.num_clients = 1;
  sys.db_pages = 300;
  for (Protocol p : config::AllProtocols()) {
    auto w = config::MakeUniform(sys, Locality::kHigh, 0.3);
    auto r = RunSimulation(p, sys, w, Quick());
    ExpectHealthy(r, config::ProtocolName(p));
    EXPECT_EQ(r.counters.callbacks_sent, 0u);
    EXPECT_EQ(r.deadlocks, 0u);
  }
}

TEST(SystemEdgeTest, SmallClientCacheForcesEvictionTraffic) {
  // Cache barely above a transaction's pinned footprint: pages churn out
  // between transactions (with eviction notices keeping the server's copy
  // table exact), but correctness must hold.
  SystemParams sys;
  sys.num_clients = 3;
  sys.db_pages = 400;
  sys.client_buf_fraction = 0.10;  // 40 pages vs 30-page transactions
  for (Protocol p :
       {Protocol::kPS, Protocol::kOS, Protocol::kPSOA, Protocol::kPSAA}) {
    auto w = config::MakeUniform(sys, Locality::kLow, 0.2);
    auto r = RunSimulation(p, sys, w, Quick());
    ExpectHealthy(r, config::ProtocolName(p));
    EXPECT_GT(r.counters.eviction_notices, 0u) << config::ProtocolName(p);
  }
}

TEST(SystemEdgeTest, PinnedFootprintPreventsMidTxnReadLockLoss) {
  // The transaction footprint stays pinned, so dirty pages never leave the
  // client mid-transaction and read locks (cached copies) are never lost —
  // the histories stay serializable even under a minimal cache.
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 400;
  sys.client_buf_fraction = 0.08;  // 32 pages, footprint is 30
  for (Protocol p : {Protocol::kPS, Protocol::kPSAA}) {
    auto w = config::MakeUniform(sys, Locality::kLow, 0.4);
    auto r = RunSimulation(p, sys, w, Quick());
    ExpectHealthy(r, config::ProtocolName(p));
    EXPECT_EQ(r.counters.dirty_evictions, 0u) << config::ProtocolName(p);
  }
}

TEST(SystemEdgeTest, ClusteredPatternRunsCorrectly) {
  SystemParams sys;
  sys.num_clients = 4;
  for (Protocol p : config::AllProtocols()) {
    auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
    w.pattern = config::AccessPattern::kClustered;
    auto r = RunSimulation(p, sys, w, Quick());
    ExpectHealthy(r, config::ProtocolName(p));
  }
}

TEST(SystemEdgeTest, ThinkTimeLowersThroughput) {
  SystemParams sys;
  sys.num_clients = 4;
  auto w = config::MakeHotCold(sys, Locality::kHigh, 0.0);
  auto fast = RunSimulation(Protocol::kPS, sys, w, Quick());
  sys.think_time = 2.0;
  auto w2 = config::MakeHotCold(sys, Locality::kHigh, 0.0);
  auto slow = RunSimulation(Protocol::kPS, sys, w2, Quick());
  EXPECT_LT(slow.throughput, fast.throughput);
  ExpectHealthy(slow, "think");
}

TEST(SystemEdgeTest, DisablingLogIoReducesDiskWrites) {
  SystemParams sys;
  sys.num_clients = 4;
  auto w = config::MakeHotCold(sys, Locality::kHigh, 0.2);
  auto with_log = RunSimulation(Protocol::kPS, sys, w, Quick());
  sys.commit_log_io = false;
  auto w2 = config::MakeHotCold(sys, Locality::kHigh, 0.2);
  auto without = RunSimulation(Protocol::kPS, sys, w2, Quick());
  EXPECT_GT(with_log.counters.log_writes, 0u);
  EXPECT_EQ(without.counters.log_writes, 0u);
  ExpectHealthy(without, "nolog");
}

TEST(SystemEdgeTest, ScaledDatabaseSmoke) {
  SystemParams sys;
  sys.num_clients = 4;
  sys.db_pages = 1250 * 9;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.15);
  w.trans_size_pages *= 3;
  auto r = RunSimulation(Protocol::kPSAA, sys, w, Quick(60));
  ExpectHealthy(r, "scaled");
}

TEST(SystemEdgeTest, MergesHappenOnlyInFineGrainedProtocols) {
  SystemParams sys;
  sys.num_clients = 6;
  auto w = config::MakeHicon(sys, Locality::kLow, 0.3);
  auto ps = RunSimulation(Protocol::kPS, sys, w, Quick());
  // PS commits replace whole exclusively-locked pages: no merge work.
  EXPECT_EQ(ps.counters.merges, 0u);
  auto oo = RunSimulation(Protocol::kPSOO, sys, w, Quick());
  EXPECT_GT(oo.counters.merges, 0u);
}

TEST(SystemEdgeTest, UnavailableMarkingsCauseRerequests) {
  SystemParams sys;
  sys.num_clients = 6;
  auto w = config::MakeHicon(sys, Locality::kHigh, 0.3);
  auto r = RunSimulation(Protocol::kPSOO, sys, w, Quick());
  EXPECT_GT(r.counters.callback_object_marks, 0u);
  EXPECT_GT(r.counters.unavailable_rerequests, 0u);
  ExpectHealthy(r, "psoo-marks");
}

TEST(SystemEdgeTest, AdaptiveCallbacksPurgeIdlePages) {
  SystemParams sys;
  sys.num_clients = 6;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
  auto oa = RunSimulation(Protocol::kPSOA, sys, w, Quick());
  // The whole point of PS-OA: most callbacks find the page idle and purge it.
  EXPECT_GT(oa.counters.callback_page_purges,
            oa.counters.callback_object_marks);
}

TEST(SystemEdgeTest, RestartBackoffCanBeDisabledAtLowContention) {
  SystemParams sys;
  sys.num_clients = 4;
  sys.restart_backoff = false;
  auto w = config::MakeHotCold(sys, Locality::kHigh, 0.1);
  auto r = RunSimulation(Protocol::kPSAA, sys, w, Quick());
  ExpectHealthy(r, "nobackoff");
}

TEST(SystemEdgeTest, ServerBufferSmallerThanDbStillCorrect) {
  SystemParams sys;
  sys.num_clients = 4;
  sys.server_buf_fraction = 0.05;
  auto w = config::MakeUniform(sys, Locality::kLow, 0.2);
  auto r = RunSimulation(Protocol::kPSOO, sys, w, Quick());
  ExpectHealthy(r, "small-server-buffer");
  EXPECT_GT(r.counters.disk_reads, 0u);
}

TEST(SystemEdgeTest, CustomWorkloadRunsCorrectlyEndToEnd) {
  // A pointer-chase-style custom workload (fixed chain of pages per client,
  // with write sharing on a common page) through the full simulator, for
  // every protocol. Every client updates the shared page, so callbacks
  // keep crossing fresh ships to the same client: the fail-fast invariant
  // checker (client caches against copy tables) catches a callback round
  // that drops a copy registered after the callback was issued.
  SystemParams sys;
  sys.num_clients = 4;
  sys.db_pages = 200;
  sys.invariant_checks = true;
  sys.invariant_failfast = true;
  config::WorkloadParams w;
  w.name = "chain";
  w.custom_max_pages = 5;
  const int opp = sys.objects_per_page;
  w.custom_generator = [opp](storage::ClientId client,
                             std::uint64_t ordinal) {
    std::vector<config::CustomAccess> refs;
    for (int hop = 0; hop < 4; ++hop) {
      storage::PageId page = 10 + client * 4 + hop;  // private chain
      refs.push_back(
          {static_cast<storage::ObjectId>(page) * opp +
               static_cast<int>(ordinal % opp),
           false});
    }
    // Shared contended page: read two objects, update one.
    refs.push_back({static_cast<storage::ObjectId>(5) * opp +
                        static_cast<int>(ordinal % opp),
                    true});
    return refs;
  };
  for (std::uint64_t seed : {1, 2, 42}) {
    sys.seed = seed;
    for (Protocol p : config::AllProtocolsExtended()) {
      auto r = RunSimulation(p, sys, w, Quick(150));
      ExpectHealthy(r, (std::string(config::ProtocolName(p)) + " seed " +
                        std::to_string(seed))
                           .c_str());
    }
  }
}

TEST(SystemEdgeTest, ResponseTimeCiIsReported) {
  SystemParams sys;
  sys.num_clients = 4;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.1);
  RunConfig rc = Quick(400);
  auto r = RunSimulation(Protocol::kPS, sys, w, rc);
  EXPECT_GT(r.response_time.mean, 0.0);
  EXPECT_GT(r.response_time.half_width, 0.0);
  // Section 5.1: CIs "within a few percent of the mean".
  EXPECT_LT(r.response_time.RelativeWidth(), 0.25);
}

// --- Run state machine edges -------------------------------------------------
//
// Every exit of the warmup/measurement state machine, pinned at exact values
// for one partition (one and two servers on one network: the event-at-a-time
// path) and for two partitions (the windowed path). 4-client HOTCOLD-low PS
// at write probability 0.2.

struct Layout {
  const char* name;
  int servers;
  int shards;
};

constexpr Layout kLayouts[] = {
    {"one server", 1, 0}, {"two servers", 2, 0}, {"two partitions", 2, 2}};

struct Exit {
  bool stalled;
  std::uint64_t commits;
  std::uint64_t events;
  double sim_seconds;
};

void ExpectExit(const Layout& layout, int clients, const RunConfig& rc,
                const Exit& want) {
  SystemParams sys;
  sys.num_clients = clients;
  sys.num_servers = layout.servers;
  sys.sim_shards = layout.shards;
  const RunResult r =
      RunSimulation(Protocol::kPS, sys,
                    config::MakeHotCold(sys, Locality::kLow, 0.2), rc);
  EXPECT_EQ(r.stalled, want.stalled) << layout.name;
  EXPECT_EQ(r.measured_commits, want.commits) << layout.name;
  EXPECT_EQ(r.events, want.events) << layout.name;
  EXPECT_EQ(r.sim_seconds, want.sim_seconds) << layout.name;
}

TEST(RunStateMachineTest, WarmupEndedByMaxEventsIsAStall) {
  RunConfig rc;
  rc.warmup_commits = 1000;
  rc.measure_commits = 100;
  rc.max_events = 5000;
  for (const Layout& l : kLayouts) ExpectExit(l, 4, rc, {true, 0, 0, 0.0});
}

TEST(RunStateMachineTest, MeasurementEndedByMaxSimSecondsFallsShort) {
  RunConfig rc;
  rc.warmup_commits = 20;
  rc.measure_commits = 100000;
  rc.max_sim_seconds = 5;
  const Exit want[] = {{false, 52, 34879, 5.0002396228582882},
                       {false, 50, 34974, 5.0006776136987634},
                       {false, 50, 35610, 5.0002556506687048}};
  for (int i = 0; i < 3; ++i) ExpectExit(kLayouts[i], 4, rc, want[i]);
}

TEST(RunStateMachineTest, ZeroWarmupMeasuresFromTheStart) {
  RunConfig rc;
  rc.warmup_commits = 0;
  rc.measure_commits = 50;
  const Exit want[] = {{false, 50, 38074, 7.6114803212474031},
                       {false, 50, 38197, 7.0228990706691512},
                       {false, 50, 38631, 6.9722389602215404}};
  for (int i = 0; i < 3; ++i) ExpectExit(kLayouts[i], 4, rc, want[i]);
}

TEST(RunStateMachineTest, NoClientsStallsAtOnce) {
  RunConfig rc;
  rc.warmup_commits = 20;
  rc.measure_commits = 100;
  for (const Layout& l : kLayouts) ExpectExit(l, 0, rc, {true, 0, 0, 0.0});
}

// --- Environment overrides ---------------------------------------------------

/// What a System constructed (not run) under one override ended up with.
struct EnvProbe {
  SystemParams params;
  bool partitioned = false;
  std::string warnings;  ///< everything written to stderr
};

EnvProbe ConstructWithEnv(const char* name, const char* value,
                          const SystemParams& sys) {
  ScopedEnv env(name, value);
  ::testing::internal::CaptureStderr();
  const System system(Protocol::kPS, sys,
                      config::MakeUniform(sys, Locality::kLow, 0.1));
  EnvProbe probe;
  probe.warnings = ::testing::internal::GetCapturedStderr();
  probe.params = system.params();
  probe.partitioned = system.partitioned();
  return probe;
}

SystemParams SmallSystem() {
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 200;
  return sys;
}

TEST(SystemEnvTest, MalformedTracePageKeepsPageTracingOff) {
  // atol read all three as a page number (0, 0 and 7) and restricted
  // tracing to that page.
  for (const char* value : {"", "garbage", "7x"}) {
    const EnvProbe p =
        ConstructWithEnv("PSOODB_TRACE_PAGE", value, SmallSystem());
    EXPECT_EQ(p.params.trace_page, -1) << '"' << value << '"';
    if (value[0] != '\0') {
      EXPECT_NE(p.warnings.find("PSOODB_TRACE_PAGE"), std::string::npos)
          << '"' << value << '"';
    }
  }
  EXPECT_EQ(ConstructWithEnv("PSOODB_TRACE_PAGE", "7", SmallSystem())
                .params.trace_page,
            7);
}

TEST(SystemEnvTest, ViolationDumpFollowsTheEnvironmentAfterARun) {
  // PSOODB_TRACE_VIOLATIONS was once latched in a function-local static at
  // the first read check, so a process that set it after one System had
  // run never got the dump.
  SystemParams sys;
  sys.num_clients = 4;
  auto w = config::MakeHicon(sys, Locality::kHigh, 0.3);
  {
    // A clean run: its read checks happen with the variable unset.
    const ScopedEnv unset("PSOODB_TRACE_VIOLATIONS", nullptr);
    RunSimulation(Protocol::kPS, sys, w, Quick());
  }
  const ScopedEnv on("PSOODB_TRACE_VIOLATIONS", "1");
  sys.test_skip_callback_drain = true;  // seeded fault: stale cached reads
  ::testing::internal::CaptureStderr();
  const RunResult r = RunSimulation(Protocol::kPS, sys, w, Quick());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_GT(r.counters.validity_violations, 0u);
  EXPECT_NE(err.find("VIOLATION"), std::string::npos);
}

TEST(SystemEnvTest, MalformedSimShardsKeepsTheConfiguredMode) {
  // atoi read "" and "abc" as 0 (silently the sequential model) and "4x"
  // as 4.
  SystemParams sys = SmallSystem();
  sys.sim_shards = 1;
  for (const char* value : {"", "abc", "4x"}) {
    const EnvProbe p = ConstructWithEnv("PSOODB_SIM_SHARDS", value, sys);
    EXPECT_EQ(p.params.sim_shards, 1) << '"' << value << '"';
    EXPECT_TRUE(p.partitioned) << '"' << value << '"';
  }
  const EnvProbe seq = ConstructWithEnv("PSOODB_SIM_SHARDS", "0", sys);
  EXPECT_EQ(seq.params.sim_shards, 0);
  EXPECT_FALSE(seq.partitioned);
}

TEST(SystemEnvTest, MalformedTelemetryTickWarnsAndKeepsTheDefault) {
  // atof dropped "", "fast" and "-1" without a word and read "0.5s" as
  // 0.5.
  const double def = SmallSystem().telemetry_tick;
  for (const char* value : {"", "fast", "0.5s", "-1"}) {
    const EnvProbe p =
        ConstructWithEnv("PSOODB_TELEMETRY_TICK", value, SmallSystem());
    EXPECT_EQ(p.params.telemetry_tick, def) << '"' << value << '"';
    if (value[0] != '\0') {
      EXPECT_NE(p.warnings.find("PSOODB_TELEMETRY_TICK"), std::string::npos)
          << '"' << value << '"';
    }
  }
  EXPECT_EQ(ConstructWithEnv("PSOODB_TELEMETRY_TICK", "0.5", SmallSystem())
                .params.telemetry_tick,
            0.5);
}

}  // namespace
}  // namespace psoodb::core
