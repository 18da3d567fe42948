// Tests for the Section 6 extensions: the redo-at-server commit mode,
// size-changing updates, and the PS-WT write-token protocol (merge-free
// concurrent page updates).

#include <gtest/gtest.h>

#include <string>

#include "config/params.h"
#include "core/system.h"

namespace psoodb::core {
namespace {

using config::CommitMode;
using config::Locality;
using config::Protocol;
using config::SystemParams;

RunConfig Quick(int commits = 200) {
  RunConfig rc;
  rc.warmup_commits = 40;
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

// --- Redo-at-server ----------------------------------------------------------

TEST(RedoAtServerTest, AllPageProtocolsStayCorrect) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.commit_mode = CommitMode::kRedoAtServer;
  for (Protocol p : {Protocol::kPS, Protocol::kPSOO, Protocol::kPSOA,
                     Protocol::kPSAA, Protocol::kPSWT}) {
    auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
    auto r = RunSimulation(p, sys, w, Quick());
    ExpectHealthy(r, config::ProtocolName(p));
    EXPECT_GT(r.counters.redo_objects, 0u) << config::ProtocolName(p);
    EXPECT_EQ(r.counters.merges, 0u) << config::ProtocolName(p);
  }
}

TEST(RedoAtServerTest, ShipsFewerBytesButReplaysAtServer) {
  SystemParams sys;
  sys.num_clients = 6;
  auto w = config::MakeHotCold(sys, Locality::kHigh, 0.2);
  auto ship = RunSimulation(Protocol::kPS, sys, w, Quick());
  sys.commit_mode = CommitMode::kRedoAtServer;
  auto w2 = config::MakeHotCold(sys, Locality::kHigh, 0.2);
  auto redo = RunSimulation(Protocol::kPS, sys, w2, Quick());
  // Commit messages shrink from pages to log records...
  EXPECT_LT(redo.counters.bytes_sent, ship.counters.bytes_sent);
  // ...and the replay work shows up at the server.
  EXPECT_GT(redo.counters.redo_objects, 0u);
  EXPECT_EQ(ship.counters.redo_objects, 0u);
}

// --- Size-changing updates --------------------------------------------------

RunResult RunGrowing(Protocol p, double size_change_prob) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.size_change_prob = size_change_prob;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
  return RunSimulation(p, sys, w, Quick());
}

TEST(SizeChangingTest, EveryGrowingUpdateOverflowsIntoForwards) {
  // Every update grows its object, so installs overflow their pages; each
  // overflow forwards one object (Section 6.1).
  for (Protocol p : {Protocol::kPS, Protocol::kPSAA}) {
    const std::string label = config::ProtocolName(p);
    auto r = RunGrowing(p, 1.0);
    ExpectHealthy(r, label.c_str());
    EXPECT_GT(r.counters.page_overflows, 0u) << label;
    EXPECT_EQ(r.counters.forwards, r.counters.page_overflows) << label;
  }
}

TEST(SizeChangingTest, FixedSizeUpdatesNeverOverflow) {
  for (Protocol p : {Protocol::kPS, Protocol::kPSAA}) {
    const std::string label = config::ProtocolName(p);
    auto r = RunGrowing(p, 0.0);
    ExpectHealthy(r, label.c_str());
    EXPECT_EQ(r.counters.page_overflows, 0u) << label;
    EXPECT_EQ(r.counters.forwards, 0u) << label;
  }
}

// --- PS-WT (write token) -----------------------------------------------------

TEST(WriteTokenTest, CorrectUnderAllWorkloads) {
  SystemParams sys;
  sys.num_clients = 6;
  struct Case {
    const char* name;
    config::WorkloadParams w;
  };
  std::vector<Case> cases;
  cases.push_back({"hotcold", config::MakeHotCold(sys, Locality::kLow, 0.2)});
  cases.push_back({"uniform", config::MakeUniform(sys, Locality::kHigh, 0.2)});
  cases.push_back({"hicon", config::MakeHicon(sys, Locality::kHigh, 0.3)});
  cases.push_back({"interleaved", config::MakeInterleavedPrivate(sys, 0.3)});
  for (auto& c : cases) {
    auto r = RunSimulation(Protocol::kPSWT, sys, c.w, Quick());
    ExpectHealthy(r, c.name);
  }
}

TEST(WriteTokenTest, NoTokenTrafficWithoutWriteSharing) {
  // PRIVATE: pages are updated by exactly one client, so tokens settle and
  // never move.
  SystemParams sys;
  sys.num_clients = 6;
  auto w = config::MakePrivate(sys, 0.2);
  auto r = RunSimulation(Protocol::kPSWT, sys, w, Quick());
  ExpectHealthy(r, "private");
  EXPECT_EQ(r.counters.token_transfers, 0u);
}

TEST(WriteTokenTest, FalseSharingCausesTokenPingPong) {
  // Interleaved PRIVATE: paired clients update disjoint objects on the same
  // pages — the token bounces, shipping page images each time.
  SystemParams sys;
  sys.num_clients = 6;
  auto w = config::MakeInterleavedPrivate(sys, 0.25);
  auto r = RunSimulation(Protocol::kPSWT, sys, w, Quick());
  ExpectHealthy(r, "interleaved");
  EXPECT_GT(r.counters.token_transfers, 0u);
}

TEST(WriteTokenTest, TokenAvoidsCommitMerges) {
  // With the token serializing page update handoffs through the server,
  // concurrently updated page copies never need merging at commit... but in
  // our model commits still install at object granularity, so we compare
  // the *message* signature instead: PS-WT moves page images at token
  // transfer time, PS-OO does not.
  SystemParams sys;
  sys.num_clients = 6;
  auto w = config::MakeInterleavedPrivate(sys, 0.25);
  auto wt = RunSimulation(Protocol::kPSWT, sys, w, Quick());
  auto oo = RunSimulation(Protocol::kPSOO, sys, w, Quick());
  EXPECT_GT(wt.counters.token_transfers, 0u);
  EXPECT_EQ(oo.counters.token_transfers, 0u);
  // The token's page-image handoffs make PS-WT strictly more
  // communication-hungry here (Section 6.1's argument for merging).
  EXPECT_GT(wt.counters.bytes_sent / wt.measured_commits,
            oo.counters.bytes_sent / oo.measured_commits);
}

TEST(WriteTokenTest, ExtendedProtocolListIncludesPswt) {
  auto v = config::AllProtocolsExtended();
  EXPECT_EQ(v.size(), 6u);
  EXPECT_EQ(v.back(), Protocol::kPSWT);
  EXPECT_STREQ(config::ProtocolName(Protocol::kPSWT), "PS-WT");
  // The paper's own evaluation list stays the original five.
  EXPECT_EQ(config::AllProtocols().size(), 5u);
}

}  // namespace
}  // namespace psoodb::core
