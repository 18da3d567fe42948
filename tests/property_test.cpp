// Cross-protocol property tests: relationships the paper's analysis asserts
// must hold between the designs' message/locking behavior, checked across
// seeds and write probabilities (parameterized sweeps).

#include <gtest/gtest.h>

#include "config/params.h"
#include "core/system.h"

namespace psoodb::core {
namespace {

using config::Locality;
using config::Protocol;
using config::SystemParams;

struct Sweep {
  std::uint64_t seed;
  double write_prob;
};

RunConfig Quick() {
  RunConfig rc;
  rc.warmup_commits = 60;
  rc.measure_commits = 400;
  return rc;
}

RunResult RunOne(Protocol p, const SystemParams& sys, double wp, Locality loc) {
  auto w = config::MakeHotCold(sys, loc, wp);
  return RunSimulation(p, sys, w, Quick());
}

class ProtocolProperties : public ::testing::TestWithParam<Sweep> {};

// Section 3.3.2: PS-OA exists to cut PS-OO's object-at-a-time callback
// streams. Per committed transaction it must send no more callbacks.
TEST_P(ProtocolProperties, AdaptiveCallbacksNeverExceedStaticObjectCallbacks) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.seed = GetParam().seed;
  auto oo = RunOne(Protocol::kPSOO, sys, GetParam().write_prob, Locality::kLow);
  auto oa = RunOne(Protocol::kPSOA, sys, GetParam().write_prob, Locality::kLow);
  double oo_cb = static_cast<double>(oo.counters.callbacks_sent) /
                 static_cast<double>(oo.measured_commits);
  double oa_cb = static_cast<double>(oa.counters.callbacks_sent) /
                 static_cast<double>(oa.measured_commits);
  EXPECT_LE(oa_cb, oo_cb * 1.05) << "seed " << GetParam().seed;
}

// Section 3.3.3: PS-AA's page-level write locks amortize write-lock
// requests that PS-OA pays per object.
TEST_P(ProtocolProperties, AdaptiveLockingSavesWriteLockMessages) {
  if (GetParam().write_prob == 0.0) GTEST_SKIP();
  SystemParams sys;
  sys.num_clients = 6;
  sys.seed = GetParam().seed;
  auto oa = RunOne(Protocol::kPSOA, sys, GetParam().write_prob, Locality::kLow);
  auto aa = RunOne(Protocol::kPSAA, sys, GetParam().write_prob, Locality::kLow);
  double oa_wr = static_cast<double>(oa.counters.write_requests) /
                 static_cast<double>(oa.measured_commits);
  double aa_wr = static_cast<double>(aa.counters.write_requests) /
                 static_cast<double>(aa.measured_commits);
  EXPECT_LT(aa_wr, oa_wr) << "seed " << GetParam().seed;
}

// Object servers request data object-at-a-time: per transaction they must
// send at least as many read requests as any page server.
TEST_P(ProtocolProperties, ObjectServerRequestsAtLeastAsManyReads) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.seed = GetParam().seed;
  auto ps = RunOne(Protocol::kPS, sys, GetParam().write_prob, Locality::kHigh);
  auto os = RunOne(Protocol::kOS, sys, GetParam().write_prob, Locality::kHigh);
  double ps_rd = static_cast<double>(ps.counters.read_requests) /
                 static_cast<double>(ps.measured_commits);
  double os_rd = static_cast<double>(os.counters.read_requests) /
                 static_cast<double>(os.measured_commits);
  EXPECT_GE(os_rd, ps_rd) << "seed " << GetParam().seed;
}

// All designs must agree on the logical work: committed transactions make
// progress and the correctness invariants hold under every seed.
TEST_P(ProtocolProperties, EveryDesignStaysCorrect) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.seed = GetParam().seed;
  for (Protocol p : config::AllProtocolsExtended()) {
    auto w = config::MakeHotCold(sys, Locality::kLow, GetParam().write_prob);
    RunConfig rc = Quick();
    rc.record_history = true;
    auto r = RunSimulation(p, sys, w, rc);
    EXPECT_FALSE(r.stalled) << config::ProtocolName(p);
    EXPECT_EQ(r.counters.validity_violations, 0u) << config::ProtocolName(p);
    EXPECT_TRUE(r.serializable)
        << config::ProtocolName(p) << ": " << r.history_violation;
    EXPECT_TRUE(r.no_lost_updates)
        << config::ProtocolName(p) << ": " << r.history_violation;
  }
}

// Throughput falls (weakly) as the write probability rises, for every
// design: more updates mean more work and more contention (Section 5.2).
TEST_P(ProtocolProperties, ThroughputMonotoneInWriteProbability) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.seed = GetParam().seed;
  for (Protocol p : {Protocol::kPS, Protocol::kPSAA, Protocol::kOS}) {
    auto lo = RunOne(p, sys, 0.0, Locality::kLow);
    auto hi = RunOne(p, sys, 0.3, Locality::kLow);
    EXPECT_GT(lo.throughput, hi.throughput) << config::ProtocolName(p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolProperties,
                         ::testing::Values(Sweep{3, 0.1}, Sweep{11, 0.2},
                                           Sweep{29, 0.3}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_w" +
                                  std::to_string(static_cast<int>(
                                      info.param.write_prob * 100));
                         });

// Paper Section 5.1: confidence intervals "within a few percent of the
// mean". Verify the harness achieves that at paper-scale run lengths.
TEST(StatisticalQuality, ResponseCiTightAtPaperScale) {
  SystemParams sys;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.15);
  RunConfig rc;
  rc.warmup_commits = 300;
  rc.measure_commits = 1500;
  auto r = RunSimulation(Protocol::kPSAA, sys, w, rc);
  EXPECT_LT(r.response_time.RelativeWidth(), 0.08);
}

}  // namespace
}  // namespace psoodb::core
