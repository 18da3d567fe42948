// Time-series telemetry (src/metrics/timeseries.h): registry unit tests,
// the zero-perturbation guarantee (enabled vs disabled runs produce
// identical simulation results), byte-identical JSONL across sim_shards
// worker-thread counts, sink well-formedness, and the Chrome counter-track
// splice into the trace sink.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "config/params.h"
#include "core/system.h"
#include "metrics/histogram.h"
#include "metrics/timeseries.h"

namespace psoodb::core {
namespace {

using config::Locality;
using config::Protocol;
using config::SystemParams;
using metrics::TimeSeries;

RunConfig Quick(int commits = 150) {
  RunConfig rc;
  rc.warmup_commits = 20;
  rc.measure_commits = commits;
  return rc;
}

// --- Registry unit tests -------------------------------------------------

TEST(TimeSeriesTest, LazySamplingStampsTickBoundaries) {
  TimeSeries ts(0.5);
  double gauge = 1.0;
  ts.AddGauge("g", [&] { return gauge; });
  ts.SampleUpTo(0.4);  // before the first tick: no rows
  EXPECT_EQ(ts.num_rows(), 0u);
  ts.SampleUpTo(0.5);  // exactly at the boundary: one row
  ASSERT_EQ(ts.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(ts.row_time(0), 0.5);
  gauge = 7.0;
  ts.SampleUpTo(2.1);  // catches up: rows at 1.0, 1.5, 2.0
  ASSERT_EQ(ts.num_rows(), 4u);
  EXPECT_DOUBLE_EQ(ts.row_time(3), 2.0);
  EXPECT_DOUBLE_EQ(ts.value(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ts.value(3, 0), 7.0);  // late rows see the probe's state
}

TEST(TimeSeriesTest, FindTrackAndKinds) {
  TimeSeries ts(1.0);
  ts.AddGauge("depth", [] { return 0.0; });
  ts.AddCounter("commits", [] { return 0.0; });
  EXPECT_EQ(ts.FindTrack("depth"), 0);
  EXPECT_EQ(ts.FindTrack("commits"), 1);
  EXPECT_EQ(ts.FindTrack("nope"), -1);
  EXPECT_FALSE(ts.track_is_counter(0));
  EXPECT_TRUE(ts.track_is_counter(1));
}

TEST(TimeSeriesTest, WindowedHistogramEmitsPerTickDeltas) {
  TimeSeries ts(1.0);
  metrics::Histogram h;
  ts.AddWindowedHistogram("lat", &h);
  ASSERT_EQ(ts.num_tracks(), 4);
  EXPECT_EQ(ts.FindTrack("lat.count"), 0);
  EXPECT_EQ(ts.FindTrack("lat.p50"), 1);
  EXPECT_EQ(ts.FindTrack("lat.p99"), 2);
  EXPECT_EQ(ts.FindTrack("lat.max"), 3);
  h.Add(0.010);
  h.Add(0.010);
  h.Add(0.100);
  ts.SampleUpTo(1.0);
  ASSERT_EQ(ts.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(ts.value(0, 0), 3.0);  // three new samples this window
  // p50 of {10ms, 10ms, 100ms} lands in the 10ms bucket; p99/max in 100ms.
  EXPECT_LT(ts.value(0, 1), ts.value(0, 3));
  EXPECT_GT(ts.value(0, 3), 0.05);
  // An empty window reports zero count and zero percentiles.
  ts.SampleUpTo(2.0);
  ASSERT_EQ(ts.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(ts.value(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(ts.value(1, 1), 0.0);
}

TEST(TimeSeriesTest, WindowedHistogramSurvivesReset) {
  // The warmup->measurement boundary Reset()s histograms; the next window
  // must re-anchor instead of producing bogus negative deltas.
  TimeSeries ts(1.0);
  metrics::Histogram h;
  ts.AddWindowedHistogram("lat", &h);
  h.Add(0.010);
  h.Add(0.020);
  ts.SampleUpTo(1.0);
  h.Reset();
  h.Add(0.050);
  ts.SampleUpTo(2.0);
  ASSERT_EQ(ts.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(ts.value(1, 0), 1.0);  // the one post-reset sample
  EXPECT_GT(ts.value(1, 3), 0.02);
}

TEST(TimeSeriesTest, SerializedSinksAreWellFormed) {
  TimeSeries ts(0.25);
  double g = 2.0;
  ts.AddGauge("kernel.depth", [&] { return g; });
  ts.AddCounter("commits", [] { return 5.0; });
  ts.SampleUpTo(0.5);
  ts.MarkMeasureStart(0.5);
  ts.SampleUpTo(1.0);
  TimeSeries::Meta meta;
  meta.protocol = "PS-AA";
  meta.num_clients = 4;
  meta.num_servers = 1;
  meta.seed = 42;
  meta.partitions = 0;
  const std::string jsonl = ts.SerializeJsonl(meta);
  // Line 1: meta with the track table; then one line per row; then summary.
  std::istringstream in(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"psoodb_telemetry\":1"), std::string::npos);
  EXPECT_NE(line.find("\"protocol\":\"PS-AA\""), std::string::npos);
  EXPECT_NE(line.find("{\"name\":\"kernel.depth\",\"kind\":\"gauge\"}"),
            std::string::npos);
  EXPECT_NE(line.find("{\"name\":\"commits\",\"kind\":\"counter\"}"),
            std::string::npos);
  int rows = 0;
  std::string last;
  while (std::getline(in, line)) {
    last = line;
    if (line.find("{\"t\":") == 0) ++rows;
  }
  EXPECT_EQ(rows, 4);
  EXPECT_NE(last.find("\"summary\":1"), std::string::npos);
  EXPECT_NE(last.find("\"ticks\":4"), std::string::npos);
  EXPECT_NE(last.find("\"measure_start\":0.5"), std::string::npos);

  const std::string chrome = ts.RenderChromeCounters();
  // 4 rows x 2 tracks = 8 counter events, newline-comma separated with no
  // trailing separator.
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"kernel.depth\""), std::string::npos);
  EXPECT_EQ(chrome.find("]"), std::string::npos);  // fragment, not a document
  EXPECT_NE(chrome.back(), ',');
}

TEST(TimeSeriesTest, LongTrackNamesAreWrittenWhole) {
  // Longer than any fixed formatting buffer a sink line could be cut at.
  const std::string name(300, 'g');
  TimeSeries ts(0.5);
  ts.AddGauge(name, [] { return 1.5; });
  ts.SampleUpTo(0.5);
  const std::string jsonl = ts.SerializeJsonl(TimeSeries::Meta{});
  const std::string meta_line = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_NE(meta_line.find("\"tracks\":[{\"name\":\"" + name +
                           "\",\"kind\":\"gauge\"}]}"),
            std::string::npos);
  EXPECT_EQ(ts.RenderChromeCounters(),
            "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":500000.000,\"name\":\"" +
                name + "\",\"args\":{\"v\":1.5}}");
}

// --- System integration --------------------------------------------------

/// The simulation-result fields that must be bit-identical whether or not
/// telemetry is enabled (telemetry is pure observation).
std::string ResultKey(const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%a|%a|%llu|%llu|%llu|%llu|%llu|%a|%a",
                r.throughput, r.sim_seconds,
                static_cast<unsigned long long>(r.measured_commits),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.counters.aborts),
                static_cast<unsigned long long>(r.counters.msgs_total),
                static_cast<unsigned long long>(r.deadlocks),
                r.response_time.mean, r.response_time.half_width);
  return buf;
}

TEST(TelemetryTest, DisabledByDefault) {
  SystemParams sys;
  sys.num_clients = 4;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
  System s(Protocol::kPSAA, sys, w);
  EXPECT_EQ(s.telemetry(), nullptr);
  auto r = s.Run(Quick());
  EXPECT_TRUE(r.telemetry_jsonl.empty());
}

TEST(TelemetryTest, EnabledVsDisabledIdenticalResultsSequential) {
  SystemParams sys;
  sys.num_clients = 6;
  auto w = config::MakeHicon(sys, Locality::kLow, 0.25);
  auto off = RunSimulation(Protocol::kPSAA, sys, w, Quick());
  sys.telemetry = true;
  auto on = RunSimulation(Protocol::kPSAA, sys, w, Quick());
  EXPECT_EQ(ResultKey(off), ResultKey(on));
  EXPECT_TRUE(off.telemetry_jsonl.empty());
  EXPECT_FALSE(on.telemetry_jsonl.empty());
}

TEST(TelemetryTest, EnabledVsDisabledIdenticalResultsPartitioned) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.num_servers = 2;
  sys.sim_shards = 2;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
  auto off = RunSimulation(Protocol::kPSAA, sys, w, Quick());
  sys.telemetry = true;
  auto on = RunSimulation(Protocol::kPSAA, sys, w, Quick());
  EXPECT_EQ(ResultKey(off), ResultKey(on));
  EXPECT_FALSE(on.telemetry_jsonl.empty());
}

TEST(TelemetryTest, ByteIdenticalAcrossSimShards) {
  // P is fixed by num_servers; sim_shards only bounds worker threads, so
  // the sampled series — like every simulation result — must be
  // byte-identical at any shard count.
  SystemParams sys;
  sys.num_clients = 8;
  sys.num_servers = 4;
  sys.telemetry = true;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
  std::vector<std::string> sinks;
  for (int shards : {1, 2, 4}) {
    sys.sim_shards = shards;
    auto r = RunSimulation(Protocol::kPSAA, sys, w, Quick());
    ASSERT_FALSE(r.telemetry_jsonl.empty()) << "sim_shards=" << shards;
    sinks.push_back(r.telemetry_jsonl);
  }
  EXPECT_EQ(sinks[0], sinks[1]);
  EXPECT_EQ(sinks[0], sinks[2]);
}

TEST(TelemetryTest, RepeatedRunsByteIdentical) {
  SystemParams sys;
  sys.num_clients = 5;
  sys.telemetry = true;
  auto w = config::MakeHotCold(sys, Locality::kHigh, 0.2);
  auto a = RunSimulation(Protocol::kPSOO, sys, w, Quick());
  auto b = RunSimulation(Protocol::kPSOO, sys, w, Quick());
  EXPECT_EQ(a.telemetry_jsonl, b.telemetry_jsonl);
}

TEST(TelemetryTest, JsonlWellFormedFromRealRun) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.num_servers = 2;
  sys.sim_shards = 2;
  sys.telemetry = true;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
  auto r = RunSimulation(Protocol::kPSAA, sys, w, Quick());
  std::istringstream in(r.telemetry_jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.find("{\"psoodb_telemetry\":1"), 0u);
  EXPECT_NE(line.find("\"partitions\":2"), std::string::npos);
  EXPECT_NE(line.find("\"tracks\":["), std::string::npos);
  // Every track registered by System must appear in the table; spot-check
  // one per instrumentation layer.
  EXPECT_NE(line.find("\"kernel.live_events\""), std::string::npos);
  EXPECT_NE(line.find("\"server0.lock_queue_depth\""), std::string::npos);
  EXPECT_NE(line.find("\"server0.buf_hit_ratio\""), std::string::npos);
  EXPECT_NE(line.find("\"shard0.stall_s\""), std::string::npos);
  EXPECT_NE(line.find("\"blocked_txns\""), std::string::npos);
  int rows = 0;
  bool summary = false;
  double prev_t = -1;
  while (std::getline(in, line)) {
    if (line.find("\"summary\":1") != std::string::npos) {
      summary = true;
      EXPECT_TRUE(in.eof() || in.peek() == EOF);  // summary is last
      break;
    }
    ASSERT_EQ(line.find("{\"t\":"), 0u) << line;
    const double t = std::atof(line.c_str() + 5);
    EXPECT_GT(t, prev_t);  // strictly increasing timestamps
    prev_t = t;
    ++rows;
  }
  EXPECT_TRUE(summary);
  EXPECT_GT(rows, 0);
}

TEST(TelemetryTest, TrackValuesSane) {
  SystemParams sys;
  sys.num_clients = 6;
  sys.telemetry = true;
  auto w = config::MakeHicon(sys, Locality::kLow, 0.25);
  System s(Protocol::kPSAA, sys, w);
  auto r = s.Run(Quick());
  TimeSeries* ts = s.telemetry();
  ASSERT_NE(ts, nullptr);
  ASSERT_GT(ts->num_rows(), 0u);
  const std::size_t last = ts->num_rows() - 1;
  const int hit = ts->FindTrack("server0.buf_hit_ratio");
  ASSERT_GE(hit, 0);
  for (std::size_t row = 0; row <= last; ++row) {
    EXPECT_GE(ts->value(row, hit), 0.0);
    EXPECT_LE(ts->value(row, hit), 1.0);
  }
  const int commits = ts->FindTrack("commits");
  ASSERT_GE(commits, 0);
  EXPECT_GT(ts->value(last, commits), 0.0);
  const int live = ts->FindTrack("kernel.live_events");
  ASSERT_GE(live, 0);
  EXPECT_GT(ts->value(last, live), 0.0);  // clients still scheduled
  const int depth = ts->FindTrack("server0.lock_queue_depth");
  ASSERT_GE(depth, 0);
  for (std::size_t row = 0; row <= last; ++row) {
    EXPECT_GE(ts->value(row, depth), 0.0);
  }
  EXPECT_GT(ts->measure_start(), 0.0);
  EXPECT_GT(r.sim_seconds, 0.0);
}

TEST(TelemetryTest, ChromeCounterTracksSplicedIntoTrace) {
  SystemParams sys;
  sys.num_clients = 4;
  sys.telemetry = true;
  sys.trace = true;
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.2);
  auto r = RunSimulation(Protocol::kPSAA, sys, w, Quick(60));
  ASSERT_FALSE(r.trace_chrome.empty());
  EXPECT_NE(r.trace_chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(r.trace_chrome.find("\"name\":\"kernel.live_events\""),
            std::string::npos);
  // Still a complete JSON document.
  const std::size_t end = r.trace_chrome.rfind("]}");
  EXPECT_NE(end, std::string::npos);
  // Counter events must not leave a dangling comma before the close.
  std::size_t last_nonspace = end;
  while (last_nonspace > 0 &&
         (r.trace_chrome[last_nonspace - 1] == '\n' ||
          r.trace_chrome[last_nonspace - 1] == ' ')) {
    --last_nonspace;
  }
  EXPECT_NE(r.trace_chrome[last_nonspace - 1], ',');
  // Trace JSONL itself is unchanged by telemetry (separate sinks).
  EXPECT_FALSE(r.trace_jsonl.empty());
  EXPECT_EQ(r.trace_jsonl.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TelemetryTest, EnvVarForceDisablesAndEnables) {
  SystemParams sys;
  sys.num_clients = 2;
  sys.telemetry = true;
  auto w = config::MakeHotCold(sys, Locality::kHigh, 0.1);
  ::setenv("PSOODB_TELEMETRY", "0", 1);
  {
    System s(Protocol::kPS, sys, w);
    EXPECT_EQ(s.telemetry(), nullptr);  // "0" force-disables
  }
  ::setenv("PSOODB_TELEMETRY", "1", 1);
  sys.telemetry = false;
  {
    System s(Protocol::kPS, sys, w);
    EXPECT_NE(s.telemetry(), nullptr);  // non-"0" enables
  }
  ::unsetenv("PSOODB_TELEMETRY");
  {
    System s(Protocol::kPS, sys, w);
    EXPECT_EQ(s.telemetry(), nullptr);  // unset: params_ value rules
  }
}

}  // namespace
}  // namespace psoodb::core
