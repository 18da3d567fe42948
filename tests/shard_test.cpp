// Tests for the partitioned (intra-run parallel) simulator: the ShardGroup
// kernel's deterministic cross-partition merge and its one-partition path,
// and full-System byte determinism across worker-thread counts — the
// central claim of sim/shard.h is that a partitioned run at any
// sim_shards >= 1 produces byte-identical results, and that one server is
// the same one-partition run at any sim_shards.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "config/params.h"
#include "core/system.h"
#include "sim/shard.h"
#include "sim/simulation.h"

namespace {

using psoodb::sim::ShardGroup;
using psoodb::sim::SimTime;
using psoodb::sim::Simulation;

// --- ShardGroup model check -------------------------------------------------
//
// A synthetic workload drives both the sharded kernel (cross-partition sends
// through the window-barrier mailbox) and a plain single-heap reference
// simulation (cross-"partition" sends scheduled directly). The per-partition
// event logs must match exactly: the conservative windows and the mailbox
// merge may not reorder, drop, or duplicate anything.

constexpr int kP = 3;
constexpr double kLookahead = 1e-3;
constexpr int kTicks = 40;

struct Entry {
  double t;
  int tag;
  bool operator==(const Entry& o) const { return t == o.t && tag == o.tag; }
};

struct Harness {
  std::vector<std::vector<Entry>> logs;
  std::function<Simulation&(int)> sim_of;
  std::function<void(int src, int dest, SimTime at, int tag)> post;

  void Tick(int p, int k) {
    Simulation& s = sim_of(p);
    logs[static_cast<std::size_t>(p)].push_back({s.now(), p * 1000 + k});
    // Cross-partition send, arriving 1.7 lookaheads out (>= the lookahead,
    // as the conservative contract requires).
    post(p, (p + 1) % kP, s.now() + 1.7 * kLookahead, 10000 + p * 100 + k);
    if (k + 1 < kTicks) {
      // Local cadence below the lookahead, so windows hold several events.
      s.ScheduleCallback(s.now() + 0.13e-3 * (p + 1),
                         [this, p, k] { Tick(p, k + 1); });
    }
  }
  void Arrive(int dest, int tag) {
    logs[static_cast<std::size_t>(dest)].push_back(
        {sim_of(dest).now(), tag});
  }
  void Seed() {
    for (int p = 0; p < kP; ++p) {
      sim_of(p).ScheduleCallback(0.05e-3 * p, [this, p] { Tick(p, 0); });
    }
  }
};

std::vector<std::vector<Entry>> RunSharded(int threads) {
  ShardGroup g(kP, threads, kLookahead);
  Harness h;
  h.logs.resize(kP);
  h.sim_of = [&g](int p) -> Simulation& { return g.sim(p); };
  h.post = [&g, &h](int src, int dest, SimTime at, int tag) {
    g.Post(src, dest, at,
           psoodb::sim::InlineFunction([&h, dest, tag] { h.Arrive(dest, tag); }));
  };
  h.Seed();
  const ShardGroup::RunResult rr = g.Run([](ShardGroup&) { return false; });
  EXPECT_TRUE(rr.stalled);  // finite workload: runs dry
  EXPECT_GT(rr.windows, 1u);
  return h.logs;
}

std::vector<std::vector<Entry>> RunReference() {
  Simulation sim;
  Harness h;
  h.logs.resize(kP);
  h.sim_of = [&sim](int) -> Simulation& { return sim; };
  h.post = [&sim, &h](int, int dest, SimTime at, int tag) {
    sim.ScheduleCallback(at, [&h, dest, tag] { h.Arrive(dest, tag); });
  };
  h.Seed();
  sim.Run(1'000'000);
  return h.logs;
}

TEST(ShardGroup, MatchesSequentialReference) {
  const auto sharded = RunSharded(kP);
  const auto reference = RunReference();
  ASSERT_EQ(sharded.size(), reference.size());
  for (int p = 0; p < kP; ++p) {
    EXPECT_EQ(sharded[static_cast<std::size_t>(p)],
              reference[static_cast<std::size_t>(p)])
        << "partition " << p << " event log diverged from the reference";
  }
}

TEST(ShardGroup, DeterministicAcrossThreadCounts) {
  const auto one = RunSharded(1);
  const auto two = RunSharded(2);
  const auto three = RunSharded(3);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, three);
}

TEST(ShardGroup, PostRejectsDeliveryInsideWindow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardGroup g(2, 1, kLookahead);
  g.sim(0).ScheduleCallback(0.0, [] {});
  // window_end_ is 0 before any Run; a delivery in the past must trip the
  // lookahead-contract CHECK.
  EXPECT_DEATH(g.Post(0, 1, -1.0, psoodb::sim::InlineFunction([] {})),
               "lands inside the current window");
}

// One partition has no windows: Run steps its simulation and calls the hook
// after every event, then reports a stall once the heap drains.
TEST(ShardGroup, OnePartitionCallsTheHookAfterEveryEvent) {
  ShardGroup g(1, 4, /*lookahead=*/0.0);
  EXPECT_EQ(g.threads(), 1);
  std::vector<double> fired;
  for (int k = 0; k < 5; ++k) {
    g.sim(0).ScheduleCallback(0.25 * k, [&fired, &g] {
      fired.push_back(g.sim(0).now());
    });
  }
  std::vector<std::uint64_t> seen;
  const ShardGroup::RunResult rr = g.Run([&](ShardGroup& sg) {
    seen.push_back(sg.sim(0).events_processed());
    EXPECT_EQ(fired.size(), seen.size());
    return false;
  });
  EXPECT_TRUE(rr.stalled);
  EXPECT_EQ(rr.events, 5u);
  EXPECT_EQ(rr.windows, 0u);
  EXPECT_EQ(g.windows(), 0u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(fired, (std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0}));

  // A hook that stops the run leaves the rest queued for the next Run.
  for (int k = 0; k < 3; ++k) g.sim(0).ScheduleCallback(2.0 + k, [] {});
  const ShardGroup::RunResult stop =
      g.Run([](ShardGroup& sg) { return sg.sim(0).now() >= 3.0; });
  EXPECT_FALSE(stop.stalled);
  EXPECT_EQ(stop.events, 2u);
  EXPECT_EQ(g.sim(0).live_events(), 1u);
}

// --- Full-system determinism ------------------------------------------------

using psoodb::config::Protocol;

/// Every result field that could conceivably differ, formatted to full
/// precision. Two runs are "byte-identical" iff these strings match.
std::string Fingerprint(const psoodb::core::RunResult& r) {
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "tput=%.17g rt=%.17g+-%.17g sim_s=%.17g commits=%llu aborts=%llu "
      "deadlocks=%llu msgs=%llu bytes=%llu lock_waits=%llu cache_hits=%llu "
      "cache_misses=%llu disk_reads=%llu disk_writes=%llu merges=%llu "
      "events=%llu cpu=%.17g disk=%.17g net=%.17g client_cpu=%.17g "
      "p50=%.17g p99=%.17g lw_p99=%.17g violations=%llu stalled=%d",
      r.throughput, r.response_time.mean, r.response_time.half_width,
      r.sim_seconds, static_cast<unsigned long long>(r.counters.commits),
      static_cast<unsigned long long>(r.counters.aborts),
      static_cast<unsigned long long>(r.deadlocks),
      static_cast<unsigned long long>(r.counters.msgs_total),
      static_cast<unsigned long long>(r.counters.bytes_sent),
      static_cast<unsigned long long>(r.counters.lock_waits),
      static_cast<unsigned long long>(r.counters.cache_hits),
      static_cast<unsigned long long>(r.counters.cache_misses),
      static_cast<unsigned long long>(r.counters.disk_reads),
      static_cast<unsigned long long>(r.counters.disk_writes),
      static_cast<unsigned long long>(r.counters.merges),
      static_cast<unsigned long long>(r.events), r.server_cpu_util,
      r.disk_util, r.network_util, r.avg_client_cpu_util,
      r.response_hist.Percentile(0.5), r.response_hist.Percentile(0.99),
      r.lock_wait_hist.Percentile(0.99),
      static_cast<unsigned long long>(r.counters.validity_violations),
      r.stalled ? 1 : 0);
  return buf;
}

psoodb::core::RunResult RunPartitioned(int shards, Protocol proto,
                                       bool trace, bool telemetry = false) {
  psoodb::config::SystemParams sys;
  sys.num_clients = 16;
  sys.num_servers = 4;
  sys.sim_shards = shards;
  sys.trace = trace;
  sys.telemetry = telemetry;
  auto w = psoodb::config::MakeHotCold(sys, psoodb::config::Locality::kLow,
                                       /*write_prob=*/0.2);
  psoodb::core::RunConfig rc;
  rc.warmup_commits = 50;
  rc.measure_commits = 400;
  rc.max_sim_seconds = 600;
  rc.record_history = true;
  return psoodb::core::RunSimulation(proto, sys, w, rc);
}

TEST(ShardedSystem, ByteIdenticalAcrossShardCounts) {
  const auto r1 = RunPartitioned(1, Protocol::kPSAA, /*trace=*/true);
  const auto r2 = RunPartitioned(2, Protocol::kPSAA, /*trace=*/true);
  const auto r4 = RunPartitioned(4, Protocol::kPSAA, /*trace=*/true);
  EXPECT_FALSE(r1.stalled);
  EXPECT_GE(r1.measured_commits, 400u);
  EXPECT_EQ(Fingerprint(r1), Fingerprint(r2));
  EXPECT_EQ(Fingerprint(r1), Fingerprint(r4));
  // The serialized traces must match byte for byte — including the per-txn
  // phase decompositions, whose floating-point sums cross partitions.
  EXPECT_EQ(r1.trace_jsonl, r2.trace_jsonl);
  EXPECT_EQ(r1.trace_jsonl, r4.trace_jsonl);
  EXPECT_EQ(r1.trace_chrome, r4.trace_chrome);
  // Callback-locking validity and the trace sums-to-response invariant must
  // hold across partition boundaries.
  EXPECT_EQ(r1.counters.validity_violations, 0u);
  EXPECT_EQ(r4.breakdown_violations, 0u);
  EXPECT_GT(r4.breakdown_txns, 0u);
}

TEST(ShardedSystem, EveryProtocolByteIdenticalAcrossShardCounts) {
  // The same 4-server run on one and on four partitions, for every
  // protocol (PS-WT runs partitioned nowhere else): results, both trace
  // sinks and the telemetry match byte for byte, and the history merged
  // from the four partitions' logs is serializable with no lost update.
  for (Protocol p : psoodb::config::AllProtocolsExtended()) {
    const char* name = psoodb::config::ProtocolName(p);
    const auto r1 = RunPartitioned(1, p, /*trace=*/true, /*telemetry=*/true);
    const auto r4 = RunPartitioned(4, p, /*trace=*/true, /*telemetry=*/true);
    for (const auto* r : {&r1, &r4}) {
      EXPECT_TRUE(r->serializable) << name;
      EXPECT_TRUE(r->no_lost_updates) << name;
      EXPECT_EQ(r->history_violation, "") << name;
    }
    EXPECT_FALSE(r1.stalled) << name;
    EXPECT_EQ(Fingerprint(r1), Fingerprint(r4)) << name;
    EXPECT_EQ(r1.trace_jsonl, r4.trace_jsonl) << name;
    EXPECT_EQ(r1.trace_chrome, r4.trace_chrome) << name;
    EXPECT_EQ(r1.telemetry_jsonl, r4.telemetry_jsonl) << name;
  }
}

// --- Cross-partition deadlocks ----------------------------------------------
//
// Two clients homed on different partitions acquire the same two pages in
// opposite order (AB-BA): every cycle spans both partitions' waits-for
// graphs, so only the serial-phase union-graph coordinator can see it. The
// run must make progress (victims are marked, woken and aborted) and the
// deadlock count must be deterministic across shard counts.

psoodb::core::RunResult RunAbba(int shards, double deadlock_interval = 20e-3,
                                bool invariants = false) {
  psoodb::config::SystemParams sys;
  sys.num_clients = 2;
  sys.num_servers = 2;
  sys.sim_shards = shards;
  sys.cross_deadlock_interval = deadlock_interval;
  sys.invariant_checks = invariants;
  const int opp = sys.objects_per_page;
  psoodb::config::WorkloadParams w;
  w.name = "ABBA";
  w.custom_max_pages = 2;
  // Page 10 lives on server 0, page 700 on server 1 (db_pages=1250, ceil-div
  // ranges [0,625) and [625,1250)).
  const psoodb::storage::ObjectId a = 10 * opp;
  const psoodb::storage::ObjectId b = 700 * opp;
  w.custom_generator = [a, b](psoodb::storage::ClientId c, std::uint64_t) {
    std::vector<psoodb::config::CustomAccess> ops;
    if (c == 0) {
      ops = {{a, true}, {b, true}};
    } else {
      ops = {{b, true}, {a, true}};
    }
    return ops;
  };
  psoodb::core::RunConfig rc;
  rc.warmup_commits = 10;
  rc.measure_commits = 60;
  rc.max_sim_seconds = 600;
  return psoodb::core::RunSimulation(Protocol::kPS, sys, w, rc);
}

TEST(ShardedSystem, CrossPartitionDeadlocksResolve) {
  const auto r = RunAbba(2);
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.measured_commits, 60u);
  EXPECT_GT(r.deadlocks, 0u);
  EXPECT_EQ(r.counters.validity_violations, 0u);
}

TEST(ShardedSystem, CrossPartitionDeadlocksDeterministic) {
  const auto r1 = RunAbba(1);
  const auto r2 = RunAbba(2);
  EXPECT_EQ(Fingerprint(r1), Fingerprint(r2));
}

// Liveness of the force-scan-on-drain rule in isolation: with the scan
// interval pushed beyond the whole run, the throttled path never fires, so
// the *only* thing standing between an AB-BA cross-partition cycle and a
// permanent stall is the scan forced when every event heap drains. The run
// must still resolve every deadlock and finish — and a drained-heap scan
// must never be reported as a stall (the wake poke re-fills the heaps).
TEST(ShardedSystem, ForceScanOnDrainIsTheOnlyDetectionPath) {
  const auto r = RunAbba(2, /*deadlock_interval=*/1e9);
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.measured_commits, 60u);
  EXPECT_GT(r.deadlocks, 0u);
  EXPECT_GT(r.shard_full_scans, 0u);  // drain-forced scans actually ran
}

// Runs the deadlock-heavy workload with invariant checking enabled: in
// partitioned mode that turns on the serial-phase cross-validation of the
// coordinator's union graph against the multiset union of every partition
// detector's Edges() (check::ValidateDeadlockCoordinator), which CHECK-
// aborts the process on any divergence. Passing means the incremental
// bookkeeping stayed exact through every add/remove/abort of the run.
TEST(ShardedSystem, CoordinatorCrossValidatesAgainstDetectors) {
  const auto r = RunAbba(2, 20e-3, /*invariants=*/true);
  EXPECT_FALSE(r.stalled);
  EXPECT_GT(r.deadlocks, 0u);
  EXPECT_GT(r.shard_scans, 0u);
}

// --- Adaptive windows --------------------------------------------------------

TEST(ShardedSystem, AdaptiveWindowsEngageAndStayDeterministic) {
  // The default stretch (2, the causality limit) must actually engage on a
  // partitioned run — the laggard partition's window passing the classic
  // T_min + L bound — while results stay byte-identical across worker
  // thread counts (covered by ByteIdenticalAcrossShardCounts above, which
  // runs at the same default).
  const auto r = RunPartitioned(4, Protocol::kPSAA, /*trace=*/false);
  EXPECT_GT(r.shard_windows, 0u);
  EXPECT_GT(r.shard_windows_stretched, 0u);
}

// --- One server is one model -------------------------------------------------
//
// The partition count follows num_servers, and one server means one
// partition whatever sim_shards says: the paper's model on one shared
// network, with every output byte and every checker of sim_shards = 0.

psoodb::core::RunResult RunOneServer(int shards) {
  psoodb::config::SystemParams sys;
  sys.num_clients = 10;
  sys.sim_shards = shards;
  sys.trace = true;
  sys.telemetry = true;
  auto w = psoodb::config::MakeHicon(sys, psoodb::config::Locality::kLow,
                                     /*write_prob=*/0.2);
  psoodb::core::RunConfig rc;
  rc.warmup_commits = 50;
  rc.measure_commits = 200;
  return psoodb::core::RunSimulation(Protocol::kPSAA, sys, w, rc);
}

TEST(ShardedSystem, OneServerIsOneModelWhateverSimShardsSays) {
  const auto r0 = RunOneServer(0);
  EXPECT_FALSE(r0.stalled);
  EXPECT_NE(r0.telemetry_jsonl.find("\"partitions\":0"), std::string::npos);
  for (int shards : {1, 4}) {
    const auto r = RunOneServer(shards);
    EXPECT_EQ(Fingerprint(r0), Fingerprint(r)) << "sim_shards=" << shards;
    EXPECT_EQ(r0.trace_jsonl, r.trace_jsonl) << "sim_shards=" << shards;
    EXPECT_EQ(r0.trace_chrome, r.trace_chrome) << "sim_shards=" << shards;
    EXPECT_EQ(r0.telemetry_jsonl, r.telemetry_jsonl)
        << "sim_shards=" << shards;
    EXPECT_EQ(r.shard_windows, 0u) << "sim_shards=" << shards;
    EXPECT_TRUE(r.shard_busy_seconds.empty()) << "sim_shards=" << shards;
  }
}

TEST(ShardedSystem, OneServerKeepsHistoryAndInvariantChecks) {
  psoodb::config::SystemParams sys;
  sys.num_clients = 8;
  sys.num_servers = 1;
  sys.sim_shards = 2;
  sys.invariant_checks = true;
  auto w = psoodb::config::MakeHotCold(sys, psoodb::config::Locality::kLow,
                                       /*write_prob=*/0.2);
  psoodb::core::RunConfig rc;
  rc.warmup_commits = 20;
  rc.measure_commits = 150;
  rc.record_history = true;
  psoodb::core::System system(Protocol::kPSAA, sys, w);
  const auto r = system.Run(rc);
  EXPECT_TRUE(system.partitioned());
  EXPECT_FALSE(r.stalled);
  EXPECT_TRUE(r.serializable) << r.history_violation;
  EXPECT_TRUE(r.no_lost_updates) << r.history_violation;
  const psoodb::check::InvariantChecker* inv = system.invariants();
  ASSERT_NE(inv, nullptr);
  EXPECT_GT(inv->sweeps_run(), 0u);
  EXPECT_TRUE(inv->ok());
}

}  // namespace
