// Multi-server (partitioned data) tests: correctness across partitions for
// every protocol, cross-server transactions, central deadlock detection,
// and partition routing.

#include <gtest/gtest.h>

#include "config/params.h"
#include "core/system.h"

namespace psoodb::core {
namespace {

using config::Locality;
using config::Protocol;
using config::SystemParams;

RunConfig Quick(int commits = 150) {
  RunConfig rc;
  rc.warmup_commits = 30;
  rc.measure_commits = commits;
  rc.record_history = true;
  return rc;
}

void ExpectHealthy(const RunResult& r, const std::string& label) {
  EXPECT_FALSE(r.stalled) << label;
  EXPECT_GT(r.throughput, 0.0) << label;
  EXPECT_EQ(r.counters.validity_violations, 0u) << label;
  EXPECT_TRUE(r.serializable) << label << ": " << r.history_violation;
  EXPECT_TRUE(r.no_lost_updates) << label << ": " << r.history_violation;
}

TEST(PartitionTest, ServerOfPageCoversAllPagesContiguously) {
  SystemParams sys;
  sys.db_pages = 1000;
  sys.num_servers = 3;
  int last = 0;
  int switches = 0;
  for (storage::PageId p = 0; p < sys.db_pages; ++p) {
    int s = sys.ServerOfPage(p);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, sys.num_servers);
    EXPECT_GE(s, last) << "partitions must be contiguous ranges";
    if (s != last) ++switches;
    last = s;
  }
  EXPECT_EQ(switches, sys.num_servers - 1);
  EXPECT_EQ(sys.ServerOfPage(0), 0);
  EXPECT_EQ(sys.ServerOfPage(sys.db_pages - 1), sys.num_servers - 1);
}

TEST(PartitionTest, NonDivisiblePageCountSplitsConsistently) {
  // 1250 pages over 4 servers does not divide evenly: ceil-div gives
  // 313/313/313/311. ServerPageRange, PagesOwnedByServer and ServerOfPage
  // must all agree on the same tiling, and the buffer split must be
  // proportional to owned pages, not an even split.
  SystemParams sys;
  sys.db_pages = 1250;
  sys.num_servers = 4;
  int total_owned = 0;
  for (int s = 0; s < sys.num_servers; ++s) {
    const auto [first, last] = sys.ServerPageRange(s);
    EXPECT_EQ(sys.PagesOwnedByServer(s), last - first);
    total_owned += sys.PagesOwnedByServer(s);
    for (storage::PageId p = first; p < last; ++p) {
      ASSERT_EQ(sys.ServerOfPage(p), s) << "page " << p;
    }
  }
  EXPECT_EQ(total_owned, sys.db_pages);
  EXPECT_EQ(sys.PagesOwnedByServer(0), 313);
  EXPECT_EQ(sys.PagesOwnedByServer(3), 311);
  // Proportional buffer split: every server gets at least one frame, the sum
  // never exceeds the configured pool, and the short last partition gets no
  // more frames than the full-sized ones.
  int total_buf = 0;
  for (int s = 0; s < sys.num_servers; ++s) {
    EXPECT_GE(sys.ServerBufPagesFor(s), 1);
    total_buf += sys.ServerBufPagesFor(s);
  }
  EXPECT_LE(total_buf, sys.server_buf_pages());
  EXPECT_LE(sys.ServerBufPagesFor(3), sys.ServerBufPagesFor(0));
}

TEST(MultiServerTest, NonDivisiblePageCountRunsHealthy) {
  SystemParams sys;
  sys.db_pages = 1250;
  sys.num_servers = 4;  // 313/313/313/311 page tiling
  sys.num_clients = 8;
  sys.invariant_checks = true;
  sys.invariant_failfast = true;
  auto w = config::MakeUniform(sys, Locality::kLow, 0.2);
  ExpectHealthy(RunSimulation(Protocol::kPSAA, sys, w, Quick()),
                "PS-AA 1250 pages / 4 servers");
}

class MultiServerCorrectness
    : public ::testing::TestWithParam<std::pair<Protocol, int>> {};

TEST_P(MultiServerCorrectness, RunsSerializablyAcrossPartitions) {
  auto [protocol, num_servers] = GetParam();
  SystemParams sys;
  sys.num_clients = 6;
  sys.num_servers = num_servers;
  // Invariant sweeps cover every partition server; fail fast since
  // RunSimulation destroys the System before violations could be read.
  sys.invariant_checks = true;
  sys.invariant_failfast = true;
  // UNIFORM guarantees cross-partition transactions (30 pages over the
  // whole database hit every partition almost surely).
  auto w = config::MakeUniform(sys, Locality::kLow, 0.2);
  auto r = RunSimulation(protocol, sys, w, Quick());
  ExpectHealthy(r, std::string(config::ProtocolName(protocol)) + "/" +
                       std::to_string(num_servers) + "srv");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiServerCorrectness,
    ::testing::Values(std::pair{Protocol::kPS, 2}, std::pair{Protocol::kPS, 4},
                      std::pair{Protocol::kOS, 2}, std::pair{Protocol::kOS, 4},
                      std::pair{Protocol::kPSOO, 2},
                      std::pair{Protocol::kPSOA, 2},
                      std::pair{Protocol::kPSAA, 2},
                      std::pair{Protocol::kPSAA, 4},
                      std::pair{Protocol::kPSWT, 2}),
    [](const auto& info) {
      std::string n = config::ProtocolName(info.param.first);
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n + "_" + std::to_string(info.param.second) + "srv";
    });

TEST(MultiServerTest, HiconContentionAcrossTwoPartitions) {
  // The HICON hot region spans partition boundaries; deadlocks across
  // servers must still be caught by the shared detector.
  SystemParams sys;
  sys.num_clients = 8;
  sys.num_servers = 2;
  auto w = config::MakeHicon(sys, Locality::kHigh, 0.3);
  auto r = RunSimulation(Protocol::kPSAA, sys, w, Quick(250));
  ExpectHealthy(r, "hicon-2srv");
  EXPECT_GT(r.counters.aborts + r.deadlocks, 0u);
}

TEST(MultiServerTest, PsWtCommitReachesAServerHoldingOnlyFlushedUpdates) {
  // Small, write-heavy transactions over a small database: PS-WT token
  // recalls often flush an active transaction's only dirty page at one
  // server, which stages the update and leaves the cached frame clean. The
  // commit must still go to that server to install the staged update and
  // release the transaction's locks; skipping it leaves a staged entry for
  // a finished transaction (an invariant violation) and stalls the run.
  SystemParams sys;
  sys.num_clients = 8;
  sys.num_servers = 2;
  sys.db_pages = 200;
  sys.client_buf_fraction = 0.5;
  sys.invariant_checks = true;
  sys.invariant_event_period = 100;
  sys.invariant_failfast = true;
  auto w = config::MakeUniform(sys, Locality::kLow, 0.5);
  w.trans_size_pages = 4;
  auto r = RunSimulation(Protocol::kPSWT, sys, w, Quick(200));
  ExpectHealthy(r, "PS-WT flushed-only server");
  EXPECT_GT(r.counters.token_transfers, 0u);
}

TEST(MultiServerTest, MoreServersRelieveAResourceBottleneck) {
  // UNIFORM low locality is dominated by server disk queueing (the paper's
  // Section 5.3 observation); partitioning across 4 servers quadruples the
  // disk arms and must raise throughput substantially. (Contention-bound
  // workloads, by contrast, do not speed up: waiting on transactions is not
  // a server resource.)
  SystemParams sys;
  sys.num_clients = 10;
  auto w1 = config::MakeUniform(sys, Locality::kLow, 0.05);
  RunConfig rc;
  rc.warmup_commits = 100;
  rc.measure_commits = 600;
  auto one = RunSimulation(Protocol::kPS, sys, w1, rc);
  sys.num_servers = 4;
  auto w4 = config::MakeUniform(sys, Locality::kLow, 0.05);
  auto four = RunSimulation(Protocol::kPS, sys, w4, rc);
  EXPECT_GT(four.throughput, one.throughput * 1.3)
      << "1 server: " << one.throughput << " tps, 4 servers: "
      << four.throughput << " tps";
  EXPECT_LT(four.disk_util, one.disk_util);
}

TEST(MultiServerTest, SingleServerResultsUnchangedByRefactor) {
  // num_servers=1 must behave identically to the original architecture:
  // deterministic, healthy, and using only server node -1.
  SystemParams sys;
  sys.num_clients = 4;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.15);
  auto a = RunSimulation(Protocol::kPSAA, sys, w, Quick());
  auto b = RunSimulation(Protocol::kPSAA, sys, w, Quick());
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  ExpectHealthy(a, "single");
}

}  // namespace
}  // namespace psoodb::core
