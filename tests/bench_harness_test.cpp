// Tests for the bench figure harness: strict environment parsing, the
// seed-determinism guarantee across thread counts, and the BENCH_*.json
// results artifact.

#include "figure_harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "results_json.h"
#include "scoped_env.h"

namespace psoodb {
namespace {

TEST(EnvIntTest, UnsetReturnsDefault) {
  ScopedEnv e("PSOODB_TEST_ENVINT", nullptr);
  EXPECT_EQ(bench::EnvInt("PSOODB_TEST_ENVINT", 17), 17);
}

TEST(EnvIntTest, ParsesValidIntegers) {
  ScopedEnv e("PSOODB_TEST_ENVINT", "4000");
  EXPECT_EQ(bench::EnvInt("PSOODB_TEST_ENVINT", 17), 4000);
  ScopedEnv neg("PSOODB_TEST_ENVINT", "-5");
  EXPECT_EQ(bench::EnvInt("PSOODB_TEST_ENVINT", 17), -5);
}

TEST(EnvIntTest, RejectsTrailingGarbage) {
  // atoi would have turned "4k" into 4, silently shrinking a run.
  ScopedEnv e("PSOODB_TEST_ENVINT", "4k");
  EXPECT_EQ(bench::EnvInt("PSOODB_TEST_ENVINT", 1200), 1200);
}

TEST(EnvIntTest, RejectsNonNumeric) {
  ScopedEnv e("PSOODB_TEST_ENVINT", "lots");
  EXPECT_EQ(bench::EnvInt("PSOODB_TEST_ENVINT", 42), 42);
  ScopedEnv empty("PSOODB_TEST_ENVINT", "");
  EXPECT_EQ(bench::EnvInt("PSOODB_TEST_ENVINT", 42), 42);
}

TEST(EnvIntTest, RejectsOutOfRange) {
  ScopedEnv e("PSOODB_TEST_ENVINT", "99999999999999999999");
  EXPECT_EQ(bench::EnvInt("PSOODB_TEST_ENVINT", 7), 7);
}

/// A small sweep configuration shared by the determinism and JSON tests.
bench::SweepOptions TinySweep() {
  bench::SweepOptions opt;
  opt.figure = "Test Figure";
  opt.title = "determinism check";
  opt.expectation = "identical results at any thread count";
  opt.write_probs = {0.0, 0.2};
  opt.protocols = {config::Protocol::kPS, config::Protocol::kPSAA};
  return opt;
}

config::SystemParams TinySystem() {
  config::SystemParams sys;
  sys.num_clients = 4;
  sys.db_pages = 400;
  return sys;
}

std::vector<std::vector<core::RunResult>> RunTinySweep(const char* threads) {
  ScopedEnv t("PSOODB_BENCH_THREADS", threads);
  ScopedEnv w("PSOODB_BENCH_WARMUP", "20");
  ScopedEnv c("PSOODB_BENCH_COMMITS", "80");
  ScopedEnv j("PSOODB_BENCH_JSON_DIR", "");  // no artifact from this helper
  return bench::RunFigure(TinySweep(), TinySystem(),
                          [](const config::SystemParams& s, double wp) {
                            return config::MakeHotCold(
                                s, config::Locality::kLow, wp);
                          });
}

/// Renders a grid with a fixed thread count so the serialization is
/// comparable across sweeps that ran with different PSOODB_BENCH_THREADS.
std::string GridFingerprint(
    const std::vector<std::vector<core::RunResult>>& grid) {
  core::RunConfig rc;
  rc.warmup_commits = 20;
  rc.measure_commits = 80;
  return bench::FigureResultsJson(TinySweep(), TinySystem(), rc,
                                  /*bench_threads=*/0, {0.0, 0.2}, grid);
}

TEST(FigureHarnessTest, SameSeedsSameResultsAcrossThreadCounts) {
  const auto grid1 = RunTinySweep("1");
  const auto grid4 = RunTinySweep("4");
  ASSERT_EQ(grid1.size(), 2u);
  ASSERT_EQ(grid4.size(), 2u);
  // %.17g round-trips doubles, so equal JSON strings mean bit-identical
  // RunResults (throughputs, CIs, every counter).
  EXPECT_EQ(GridFingerprint(grid1), GridFingerprint(grid4));
  // Spot-check a few fields directly for a clearer failure mode.
  for (std::size_t i = 0; i < grid1.size(); ++i) {
    for (std::size_t j = 0; j < grid1[i].size(); ++j) {
      EXPECT_EQ(grid1[i][j].throughput, grid4[i][j].throughput);
      EXPECT_EQ(grid1[i][j].counters.commits, grid4[i][j].counters.commits);
      EXPECT_EQ(grid1[i][j].counters.msgs_total,
                grid4[i][j].counters.msgs_total);
      EXPECT_EQ(grid1[i][j].response_time.mean,
                grid4[i][j].response_time.mean);
      EXPECT_EQ(grid1[i][j].deadlocks, grid4[i][j].deadlocks);
    }
  }
}

TEST(FigureHarnessTest, TracesAreIdenticalAcrossThreadCounts) {
  // With tracing on, the serialized sinks carried in each RunResult must be
  // byte-identical regardless of PSOODB_BENCH_THREADS — the trace is part of
  // the deterministic output, not a best-effort log.
  ScopedEnv trace("PSOODB_TRACE", "1");
  const auto grid1 = RunTinySweep("1");
  const auto grid4 = RunTinySweep("4");
  ASSERT_EQ(grid1.size(), grid4.size());
  std::size_t traced = 0;
  for (std::size_t i = 0; i < grid1.size(); ++i) {
    ASSERT_EQ(grid1[i].size(), grid4[i].size());
    for (std::size_t j = 0; j < grid1[i].size(); ++j) {
      EXPECT_FALSE(grid1[i][j].trace_jsonl.empty());
      EXPECT_EQ(grid1[i][j].trace_jsonl, grid4[i][j].trace_jsonl);
      EXPECT_EQ(grid1[i][j].trace_chrome, grid4[i][j].trace_chrome);
      traced += !grid1[i][j].trace_jsonl.empty();
    }
  }
  EXPECT_GT(traced, 0u);
  // The numeric results are still identical too: tracing does not interact
  // with the thread-count determinism guarantee.
  EXPECT_EQ(GridFingerprint(grid1), GridFingerprint(grid4));
}

TEST(FigureHarnessTest, TelemetryIsIdenticalAcrossThreadCounts) {
  // Like the trace sinks, the telemetry time series carried in each
  // RunResult is deterministic output: byte-identical at any
  // PSOODB_BENCH_THREADS (and the TELEMETRY_* files the harness writes
  // from it are therefore identical too).
  ScopedEnv telemetry("PSOODB_TELEMETRY", "1");
  const auto grid1 = RunTinySweep("1");
  const auto grid4 = RunTinySweep("4");
  ASSERT_EQ(grid1.size(), grid4.size());
  std::size_t telemetered = 0;
  for (std::size_t i = 0; i < grid1.size(); ++i) {
    ASSERT_EQ(grid1[i].size(), grid4[i].size());
    for (std::size_t j = 0; j < grid1[i].size(); ++j) {
      EXPECT_FALSE(grid1[i][j].telemetry_jsonl.empty());
      EXPECT_EQ(grid1[i][j].telemetry_jsonl, grid4[i][j].telemetry_jsonl);
      telemetered += !grid1[i][j].telemetry_jsonl.empty();
    }
  }
  EXPECT_GT(telemetered, 0u);
  EXPECT_EQ(GridFingerprint(grid1), GridFingerprint(grid4));
}

/// Checks brace/bracket balance outside of string literals — a cheap
/// well-formedness proxy that catches truncated or mis-nested output.
bool BalancedJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(FigureHarnessTest, WritesWellFormedJsonArtifact) {
  const std::string dir = ::testing::TempDir();
  std::vector<std::vector<core::RunResult>> grid;
  {
    ScopedEnv t("PSOODB_BENCH_THREADS", "2");
    ScopedEnv w("PSOODB_BENCH_WARMUP", "10");
    ScopedEnv c("PSOODB_BENCH_COMMITS", "40");
    ScopedEnv j("PSOODB_BENCH_JSON_DIR", dir.c_str());
    bench::SweepOptions opt = TinySweep();
    opt.write_probs = {0.1};
    grid = bench::RunFigure(opt, TinySystem(),
                            [](const config::SystemParams& s, double wp) {
                              return config::MakeHotCold(
                                  s, config::Locality::kLow, wp);
                            });
  }
  ASSERT_EQ(grid.size(), 1u);

  EXPECT_EQ(bench::FigureJsonFileName("Test Figure"),
            "BENCH_Test_Figure.json");
  const std::string path = dir + "/BENCH_Test_Figure.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  EXPECT_TRUE(BalancedJson(json));
  for (const char* key :
       {"\"figure\"", "\"config\"", "\"protocols\"", "\"points\"",
        "\"write_prob\"", "\"throughput\"", "\"response_time\"",
        "\"half_width\"", "\"counters\"", "\"stalled\"", "\"seed\"",
        "\"bench_threads\"", "\"msgs_total\"", "\"validity_violations\"",
        "\"schema_version\":2", "\"latency\"", "\"p50\"", "\"p99\"",
        "\"mean_lock_wait\"", "\"mean_callback_wait\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
  }
  std::remove(path.c_str());
}

TEST(FigureHarnessTest, NormalizationFallsBackWhenPsAaUnusable) {
  // Synthesize a grid where PS-AA committed nothing; the serialized output
  // must still carry the raw numbers and the stall flag (the console path
  // prints raw values with an annotation instead of dividing by a fake 1.0).
  bench::SweepOptions opt = TinySweep();
  opt.normalize_to_psaa = true;
  core::RunResult ps;
  ps.protocol = config::Protocol::kPS;
  ps.throughput = 12.5;
  core::RunResult psaa;
  psaa.protocol = config::Protocol::kPSAA;
  psaa.throughput = 0.0;
  psaa.stalled = true;
  std::vector<std::vector<core::RunResult>> grid = {{ps, psaa}};
  core::RunConfig rc;
  const std::string json = bench::FigureResultsJson(
      opt, TinySystem(), rc, 1, {0.1}, grid);
  EXPECT_NE(json.find("\"normalize_to_psaa\":true"), std::string::npos);
  EXPECT_NE(json.find("\"throughput\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"stalled\":true"), std::string::npos);
  EXPECT_TRUE(BalancedJson(json));
}

}  // namespace
}  // namespace psoodb
