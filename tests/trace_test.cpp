// Tracing subsystem: determinism of the serialized sinks, zero-perturbation
// when enabled (tracing observes, never schedules), Chrome sink
// well-formedness, the sums-to-response decomposition invariant across all
// six protocols under contention, ring-buffer bounding, and the per-System
// PSOODB_TRACE_PAGE regression.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "config/params.h"
#include "core/system.h"
#include "trace/trace.h"

namespace psoodb::core {
namespace {

using config::Locality;
using config::Protocol;
using config::SystemParams;

RunConfig Quick(int commits = 150) {
  RunConfig rc;
  rc.warmup_commits = 30;
  rc.measure_commits = commits;
  return rc;
}

/// High-contention setup: few pages, many writers.
SystemParams Contended() {
  SystemParams sys;
  sys.num_clients = 8;
  sys.db_pages = 120;
  sys.trace = true;
  return sys;
}

RunResult TracedRun(Protocol p, int commits = 150) {
  SystemParams sys = Contended();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.5);
  return RunSimulation(p, sys, w, Quick(commits));
}

TEST(TraceTest, BreakdownSumsToResponseOnAllProtocols) {
  for (Protocol p : config::AllProtocols()) {
    RunResult r = TracedRun(p);
    EXPECT_FALSE(r.stalled) << config::ProtocolName(p);
    EXPECT_EQ(r.breakdown_txns, r.measured_commits) << config::ProtocolName(p);
    EXPECT_EQ(r.breakdown_violations, 0u) << config::ProtocolName(p);
    // The decomposition is non-trivial: commits spent real time in at least
    // the network phase (every transaction talks to the server).
    EXPECT_GT(r.phase_seconds[static_cast<int>(trace::Phase::kNetwork)], 0.0)
        << config::ProtocolName(p);
  }
}

TEST(TraceTest, SerializedTracesAreDeterministic) {
  for (Protocol p : {Protocol::kPS, Protocol::kPSAA}) {
    RunResult a = TracedRun(p, 80);
    RunResult b = TracedRun(p, 80);
    ASSERT_FALSE(a.trace_jsonl.empty()) << config::ProtocolName(p);
    EXPECT_EQ(a.trace_jsonl, b.trace_jsonl) << config::ProtocolName(p);
    EXPECT_EQ(a.trace_chrome, b.trace_chrome) << config::ProtocolName(p);
  }
}

TEST(TraceTest, TracingDoesNotPerturbTheSimulation) {
  SystemParams sys = Contended();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.5);
  sys.trace = false;
  RunResult off = RunSimulation(Protocol::kPSOA, sys, w, Quick());
  sys.trace = true;
  RunResult on = RunSimulation(Protocol::kPSOA, sys, w, Quick());
  // Bit-identical simulation: tracing adds no events and no sim-time costs.
  EXPECT_EQ(off.throughput, on.throughput);
  EXPECT_EQ(off.sim_seconds, on.sim_seconds);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.measured_commits, on.measured_commits);
  EXPECT_EQ(off.counters.msgs_total, on.counters.msgs_total);
  EXPECT_EQ(off.counters.aborts, on.counters.aborts);
  // And the sinks only exist when tracing is on.
  EXPECT_TRUE(off.trace_jsonl.empty());
  EXPECT_FALSE(on.trace_jsonl.empty());
  EXPECT_EQ(off.breakdown_txns, 0u);
}

TEST(TraceTest, ChromeTraceIsWellFormedAndMonotonePerTrack) {
  RunResult r = TracedRun(Protocol::kPSOO, 100);
  const std::string& s = r.trace_chrome;
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(s.substr(s.size() - 4), "\n]}\n");
  // Braces and brackets balance (no truncated records).
  long braces = 0, brackets = 0;
  for (char c : s) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // ts monotone per tid over the "ph":"X"/"i" records (the serializer sorts
  // by (t, seq)); metadata records carry no "ts".
  std::map<int, double> last_ts;
  std::size_t pos = 0, records = 0;
  while ((pos = s.find("\"tid\":", pos)) != std::string::npos) {
    pos += 6;
    const int tid = std::atoi(s.c_str() + pos);
    const std::size_t ts_pos = s.find("\"ts\":", pos);
    const std::size_t rec_end = s.find('\n', pos);
    if (ts_pos == std::string::npos || ts_pos > rec_end) continue;
    const double ts = std::atof(s.c_str() + ts_pos + 5);
    auto [it, inserted] = last_ts.try_emplace(tid, ts);
    if (!inserted) {
      EXPECT_LE(it->second, ts) << "tid " << tid;
      it->second = ts;
    }
    ++records;
  }
  EXPECT_GT(records, 10u);
}

TEST(TraceTest, RingBufferIsBounded) {
  SystemParams sys = Contended();
  sys.trace_buffer_events = 64;
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.5);
  RunResult r = RunSimulation(Protocol::kPS, sys, w, Quick());
  EXPECT_GT(r.trace_events_dropped, 0u);
  // JSONL line count: meta + events + summary, with events capped at 64.
  std::size_t lines = 0;
  for (char c : r.trace_jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 64u + 2u);
}

TEST(TraceTest, TracePageIsPerSystemNotProcessCached) {
  // Regression: PSOODB_TRACE_PAGE was once latched in a function-local
  // static, so the first System constructed in a process decided the
  // traced page for every later one. The env var must land in each System's
  // own params copy at construction time.
  ASSERT_EQ(setenv("PSOODB_TRACE_PAGE", "5", 1), 0);
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 200;
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.2);
  System a(Protocol::kPS, sys, w);
  ASSERT_EQ(setenv("PSOODB_TRACE_PAGE", "7", 1), 0);
  System b(Protocol::kPS, sys, w);
  ASSERT_EQ(unsetenv("PSOODB_TRACE_PAGE"), 0);
  System c(Protocol::kPS, sys, w);
  EXPECT_EQ(a.params().trace_page, 5);
  EXPECT_EQ(b.params().trace_page, 7);
  EXPECT_EQ(c.params().trace_page, -1);
}

TEST(TraceTest, JsonlSummaryMatchesResultTotals) {
  RunResult r = TracedRun(Protocol::kOS, 100);
  const std::string& s = r.trace_jsonl;
  ASSERT_FALSE(s.empty());
  // Meta line first, summary line last.
  EXPECT_EQ(s.rfind("{\"psoodb_trace\":1", 0), 0u);
  const std::size_t sum_pos = s.find("{\"summary\":1");
  ASSERT_NE(sum_pos, std::string::npos);
  char expect[64];
  std::snprintf(expect, sizeof(expect), "\"commits\":%llu",
                static_cast<unsigned long long>(r.breakdown_txns));
  EXPECT_NE(s.find(expect, sum_pos), std::string::npos);
  EXPECT_NE(s.find("\"violations\":0", sum_pos), std::string::npos);
}

}  // namespace
}  // namespace psoodb::core
