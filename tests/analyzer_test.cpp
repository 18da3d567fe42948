/// \file analyzer_test.cpp
/// Tests for psoodb-analyze (tools/analyzer). Two layers:
///
///  - fixture tests: each tests/analyzer/fixtures/*.cxx file encodes its own
///    expectations as `EXPECT: <check>` / `EXPECT-SUPPRESSED: <check>`
///    comments; the test runs the analyzer on the fixture and demands the
///    finding set matches the markers EXACTLY (so both missed true positives
///    and new false positives fail);
///  - in-memory tests: lexer/preprocessor behavior and cross-file symbol
///    resolution via AnalyzeSources.
///
/// Fixtures use the .cxx extension so full-tree scans never pick them up;
/// the analyzer lexes explicitly named files regardless of extension.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/checks.h"
#include "analyzer/driver.h"
#include "analyzer/sarif.h"
#include "gtest/gtest.h"

namespace {

using psoodb::analyzer::AnalysisResult;
using psoodb::analyzer::AnalyzePaths;
using psoodb::analyzer::AnalyzeSources;

std::string FixturePath(const std::string& name) {
  return std::string(PSOODB_ANALYZER_FIXTURE_DIR) + "/" + name;
}

std::string FindingKey(int line, const std::string& check, bool suppressed) {
  std::ostringstream os;
  os << "line " << line << ": " << check
     << (suppressed ? " (suppressed)" : "");
  return os.str();
}

/// Reads `EXPECT: check` and `EXPECT-SUPPRESSED: check` markers.
std::vector<std::string> ParseExpectations(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::string line;
  int ln = 0;
  auto read_check = [](const std::string& s, std::size_t at) {
    std::size_t b = at;
    while (b < s.size() && s[b] == ' ') ++b;
    std::size_t e = b;
    while (e < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[e])) || s[e] == '-')) {
      ++e;
    }
    return s.substr(b, e - b);
  };
  while (std::getline(in, line)) {
    ++ln;
    for (std::size_t pos = 0; (pos = line.find("EXPECT", pos)) !=
                              std::string::npos;) {
      if (line.compare(pos, 18, "EXPECT-SUPPRESSED:") == 0) {
        out.push_back(FindingKey(ln, read_check(line, pos + 18), true));
        pos += 18;
      } else if (line.compare(pos, 7, "EXPECT:") == 0) {
        out.push_back(FindingKey(ln, read_check(line, pos + 7), false));
        pos += 7;
      } else {
        pos += 6;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RunFixture(const std::string& name) {
  const std::string path = FixturePath(name);
  const AnalysisResult r = AnalyzePaths({path});
  EXPECT_TRUE(r.errors.empty());
  EXPECT_EQ(r.files_scanned, 1);

  std::vector<std::string> actual;
  for (const auto& f : r.findings) {
    actual.push_back(FindingKey(f.line, f.check, f.suppressed));
  }
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, ParseExpectations(path)) << "fixture: " << name;
}

TEST(AnalyzerFixtures, SuspendRef) { RunFixture("suspend_ref.cxx"); }
TEST(AnalyzerFixtures, DroppedTask) { RunFixture("dropped_task.cxx"); }
TEST(AnalyzerFixtures, UnorderedIter) { RunFixture("unordered_iter.cxx"); }
TEST(AnalyzerFixtures, DetHazard) { RunFixture("det_hazard.cxx"); }
TEST(AnalyzerFixtures, DcheckSideEffect) { RunFixture("dcheck.cxx"); }
TEST(AnalyzerFixtures, EnumSwitch) { RunFixture("enum_switch.cxx"); }
TEST(AnalyzerFixtures, AwaitInCondition) {
  RunFixture("await_condition.cxx");
}
TEST(AnalyzerFixtures, Suppressions) { RunFixture("suppressions.cxx"); }
TEST(AnalyzerFixtures, GuardedBy) { RunFixture("guarded_by.cxx"); }
TEST(AnalyzerFixtures, BlockingInCoroutine) {
  RunFixture("blocking_coroutine.cxx");
}
TEST(AnalyzerFixtures, ShardEscape) { RunFixture("shard_escape.cxx"); }
TEST(AnalyzerFixtures, UnannotatedSharedStatic) {
  RunFixture("shared_static.cxx");
}
TEST(AnalyzerFixtures, StaleSuppression) {
  RunFixture("stale_suppression.cxx");
}
TEST(AnalyzerFixtures, LockLeak) { RunFixture("lock_leak.cxx"); }
TEST(AnalyzerFixtures, ReplyObligation) { RunFixture("reply_obligation.cxx"); }
TEST(AnalyzerFixtures, ObligationAnnotation) {
  RunFixture("obligation_annotation.cxx");
}
TEST(AnalyzerFixtures, ProtocolTransitionPs) { RunFixture("ps.cxx"); }
TEST(AnalyzerFixtures, ProtocolTransitionOs) { RunFixture("os.cxx"); }
TEST(AnalyzerFixtures, ProtocolTransitionClient) {
  RunFixture("client.cxx");
}
TEST(AnalyzerFixtures, ProtocolTransitionServer) {
  RunFixture("server.cxx");
}

// Coverage guard: every registered check must have at least one true-positive
// fixture expectation (EXPECT or EXPECT-SUPPRESSED) and at least one marked
// false-positive guard (FP-GUARD) somewhere under the fixture directory, so
// new checks cannot land untested in either direction.
TEST(AnalyzerFixtures, EveryCheckHasFixtureCoverage) {
  namespace fs = std::filesystem;
  std::set<std::string> expected;
  std::set<std::string> guarded;
  auto collect = [](const std::string& line, const char* marker,
                    std::set<std::string>* into) {
    const std::size_t mlen = std::string(marker).size();
    for (std::size_t pos = 0;
         (pos = line.find(marker, pos)) != std::string::npos; pos += mlen) {
      std::size_t b = pos + mlen;
      while (b < line.size() && line[b] == ' ') ++b;
      std::size_t e = b;
      while (e < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[e])) ||
              line[e] == '-')) {
        ++e;
      }
      if (e > b) into->insert(line.substr(b, e - b));
    }
  };
  int fixtures = 0;
  for (const auto& ent : fs::directory_iterator(PSOODB_ANALYZER_FIXTURE_DIR)) {
    if (ent.path().extension() != ".cxx") continue;
    ++fixtures;
    std::ifstream in(ent.path());
    std::string line;
    while (std::getline(in, line)) {
      collect(line, "EXPECT:", &expected);
      collect(line, "EXPECT-SUPPRESSED:", &expected);
      collect(line, "FP-GUARD:", &guarded);
    }
  }
  EXPECT_GE(fixtures, 19);
  for (const std::string& check : psoodb::analyzer::AllCheckNames()) {
    EXPECT_NE(expected.count(check), 0u)
        << "no true-positive fixture expectation for check: " << check;
    EXPECT_NE(guarded.count(check), 0u)
        << "no FP-GUARD fixture marker for check: " << check;
  }
}

TEST(AnalyzerLexer, StringsAndCommentsAreMasked) {
  const AnalysisResult r = AnalyzeSources({{"mask.cpp", R"cpp(
    // rand(); getpid(); std::random_device rd;
    const char* a = "rand() and getpid() and steady_clock";
    const char* b = R"x(time(NULL) clock() srand(1))x";
  )cpp"}});
  EXPECT_EQ(r.findings.size(), 0u) << "strings/comments must not trip checks";
}

TEST(AnalyzerLexer, IfZeroRegionIsDead) {
  const AnalysisResult r = AnalyzeSources({{"ifzero.cpp", R"cpp(
#if 0
    int dead() { return rand(); }
#endif
    int live() { return 42; }
  )cpp"}});
  EXPECT_EQ(r.findings.size(), 0u) << "#if 0 code must not produce findings";
}

TEST(AnalyzerLexer, ElseBranchOfIfZeroIsLive) {
  const AnalysisResult r = AnalyzeSources({{"ifelse.cpp", R"cpp(
#if 0
    int dead() { return rand(); }
#else
    int live() { return rand(); }
#endif
  )cpp"}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].check, "det-hazard");
}

TEST(AnalyzerSymbols, CrossFileTaskResolution) {
  // The task-returning declaration lives in one file, the dropped call in
  // another: the global two-pass index must connect them.
  const AnalysisResult r = AnalyzeSources({
      {"api.h", R"cpp(
        struct Task {};
        Task Work(int n);
      )cpp"},
      {"use.cpp", R"cpp(
        void Caller() {
          Work(1);
        }
      )cpp"},
  });
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].check, "dropped-task");
  EXPECT_EQ(r.findings[0].file, "use.cpp");
}

TEST(AnalyzerSymbols, AmbiguousNamesAreDropped) {
  // `Run` is declared both task- and non-task-returning somewhere in the
  // tree; name-based resolution must stay silent rather than guess.
  const AnalysisResult r = AnalyzeSources({
      {"a.h", R"cpp(
        struct Task {};
        Task Run(int n);
        unsigned long Run();
      )cpp"},
      {"b.cpp", R"cpp(
        void Caller() {
          Run(1);
        }
      )cpp"},
  });
  EXPECT_EQ(r.findings.size(), 0u);
}

TEST(AnalyzerReport, JsonShapeAndExitSemantics) {
  const AnalysisResult r = AnalyzeSources({{"j.cpp", R"cpp(
    int Seed() { return rand(); }
  )cpp"}});
  EXPECT_EQ(r.Unsuppressed(), 1);
  const std::string json = psoodb::analyzer::JsonReport(r);
  EXPECT_NE(json.find("\"tool\": \"psoodb-analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"det-hazard\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": false"), std::string::npos);
}

TEST(AnalyzerConcurrency, RequiresPropagatesAcrossFiles) {
  // PSOODB_REQUIRES is declared in one translation unit and violated in
  // another: the global symbol index must carry the contract across.
  const AnalysisResult r = AnalyzeSources({
      {"ledger.h", R"cpp(
        class Ledger {
         public:
          int TotalLocked() PSOODB_REQUIRES(mu_);
         private:
          std::mutex mu_;
          int total_ PSOODB_GUARDED_BY(mu_) = 0;
        };
      )cpp"},
      {"report.cpp", R"cpp(
        int Report(Ledger& l) {
          return l.TotalLocked();
        }
      )cpp"},
  });
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].check, "guarded-by");
  EXPECT_EQ(r.findings[0].file, "report.cpp");
}

TEST(AnalyzerConcurrency, GuardedFieldAccessIsStemScoped) {
  // Name-based indexing: a field named like a guarded one but living in an
  // unrelated file must not be flagged (the documented false-negative trade
  // that keeps guarded-by free of false positives).
  const AnalysisResult r = AnalyzeSources({
      {"ledger.h", R"cpp(
        class Ledger {
         private:
          std::mutex mu_;
          int total_ PSOODB_GUARDED_BY(mu_) = 0;
        };
      )cpp"},
      {"other.cpp", R"cpp(
        struct Stats { int total_ = 0; };
        int Sum(Stats& s) { return s.total_; }
      )cpp"},
  });
  EXPECT_EQ(r.findings.size(), 0u);
}

TEST(AnalyzerConcurrency, MultiDefinitionNamesDoNotPropagateBlocking) {
  // `Poll` blocks in one definition but not the other: ambiguous, so a
  // coroutine calling it stays clean (documented false-negative trade).
  const AnalysisResult r = AnalyzeSources({
      {"a.cpp", R"cpp(
        std::mutex amu;
        void Poll() { std::lock_guard<std::mutex> lock(amu); }
      )cpp"},
      {"b.cpp", R"cpp(
        void Poll() { }
        sim::Task Loop() {
          Poll();
          co_return 0;
        }
      )cpp"},
  });
  EXPECT_EQ(r.findings.size(), 0u);
}

TEST(AnalyzerConcurrency, AnnotationIsTransparentToUnorderedIndexing) {
  // A trailing annotation must not hide the variable's unordered type from
  // pass B: the unordered-iter check still fires through it.
  const AnalysisResult r = AnalyzeSources({{"m.cpp", R"cpp(
    std::unordered_map<int, int> tallies PSOODB_PARTITION_LOCAL;
    int Emit() {
      int s = 0;
      for (auto& [k, v] : tallies) s = s * 31 + v;
      return s;
    }
  )cpp"}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].check, "unordered-iter");
}

TEST(AnalyzerConcurrency, SeededTreeBugsAreCaughtAndExcused) {
  // The never-compiled PSOODB_SEED_CONCURRENCY_BUGS blocks in the real tree
  // exist to prove the checks work on production shapes: the analyzer must
  // see both seeded defects and both must be suppressed (not silently
  // missed, not breaking the tree gate). Header + .cpp pairs are analyzed
  // together because the symbol index is built from the analyzed set only.
  const std::string root = PSOODB_ANALYZER_SOURCE_DIR;
  const AnalysisResult pool = AnalyzePaths(
      {root + "/src/util/thread_pool.h", root + "/src/util/thread_pool.cpp"});
  bool saw_guarded = false;
  for (const auto& f : pool.findings) {
    if (f.check == "guarded-by") {
      EXPECT_TRUE(f.suppressed);
      EXPECT_NE(f.justification.find("seeded"), std::string::npos);
      saw_guarded = true;
    }
  }
  EXPECT_TRUE(saw_guarded) << "seeded guarded-by defect not detected";
  EXPECT_EQ(pool.Unsuppressed(), 0);

  const AnalysisResult shard = AnalyzePaths(
      {root + "/src/sim/shard.h", root + "/src/sim/shard.cpp"});
  bool saw_escape = false;
  for (const auto& f : shard.findings) {
    if (f.check == "shard-escape") {
      EXPECT_TRUE(f.suppressed);
      EXPECT_NE(f.justification.find("seeded"), std::string::npos);
      saw_escape = true;
    }
  }
  EXPECT_TRUE(saw_escape) << "seeded shard-escape defect not detected";
  EXPECT_EQ(shard.Unsuppressed(), 0);
}

TEST(AnalyzerObligations, SeededObligationBugsAreCaughtAndExcused) {
  // The never-compiled PSOODB_SEED_OBLIGATION_BUGS block in server.cpp seeds
  // an abort-path lock leak and a dropped reply on production handler shapes:
  // both must be detected, and both must be suppressed by their justified
  // markers so the tree gate stays clean. The lock_manager header rides along
  // because the obligation index is built from the analyzed set only.
  const std::string root = PSOODB_ANALYZER_SOURCE_DIR;
  const AnalysisResult r = AnalyzePaths({root + "/src/cc/lock_manager.h",
                                         root + "/src/core/server.h",
                                         root + "/src/core/server.cpp"});
  EXPECT_TRUE(r.errors.empty());
  bool saw_leak = false;
  bool saw_drop = false;
  for (const auto& f : r.findings) {
    if (f.check == "lock-leak") {
      EXPECT_TRUE(f.suppressed);
      EXPECT_NE(f.justification.find("seeded"), std::string::npos);
      saw_leak = true;
    }
    if (f.check == "reply-obligation") {
      EXPECT_TRUE(f.suppressed);
      EXPECT_NE(f.justification.find("seeded"), std::string::npos);
      saw_drop = true;
    }
  }
  EXPECT_TRUE(saw_leak) << "seeded abort-path lock leak not detected";
  EXPECT_TRUE(saw_drop) << "seeded dropped reply not detected";
  EXPECT_EQ(r.Unsuppressed(), 0);
}

TEST(AnalyzerObligations, SrcTreeIsClean) {
  // The whole src/ tree — all sixteen checks including the obligation and
  // protocol-transition families — must be finding-free modulo justified
  // suppressions.
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const auto& ent : fs::recursive_directory_iterator(
           std::string(PSOODB_ANALYZER_SOURCE_DIR) + "/src")) {
    if (!ent.is_regular_file()) continue;
    const std::string ext = ent.path().extension().string();
    if (ext == ".h" || ext == ".cpp") paths.push_back(ent.path().string());
  }
  std::sort(paths.begin(), paths.end());
  const AnalysisResult r = AnalyzePaths(paths);
  EXPECT_TRUE(r.errors.empty());
  EXPECT_EQ(r.Unsuppressed(), 0) << psoodb::analyzer::JsonReport(r);
}

TEST(AnalyzerReport, SarifFingerprintsAreStableAndUnique) {
  // Two findings with identical check + file + line text: the content hash
  // matches, so the occurrence counter must keep the fingerprints distinct
  // (and renumbering-only diffs keep stable ids, since line numbers are not
  // hashed).
  const AnalysisResult r = AnalyzeSources({{"fp.cpp",
    "int A() {\n"
    "  int a = rand();\n"
    "  int a = rand();\n"
    "  return a;\n"
    "}\n"}});
  ASSERT_EQ(r.findings.size(), 2u);
  const std::string sarif = psoodb::analyzer::SarifReport(r);
  EXPECT_NE(sarif.find("\"partialFingerprints\""), std::string::npos);
  const std::size_t first = sarif.find("psoodbAnalyzeFingerprint/v1");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(sarif.find("psoodbAnalyzeFingerprint/v1", first + 1),
            std::string::npos);
  EXPECT_NE(sarif.find(":0\""), std::string::npos);
  EXPECT_NE(sarif.find(":1\""), std::string::npos);
}

TEST(AnalyzerReport, SarifShape) {
  const AnalysisResult r = AnalyzeSources({{"s.cpp", R"cpp(
    static int g_bad;
    int Seed() { return rand(); }  // det-ok: unit-test justification
  )cpp"}});
  const std::string sarif = psoodb::analyzer::SarifReport(r);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"psoodb-analyze\""), std::string::npos);
  // Every check is a rule, findings carry ruleId + location, suppressed
  // findings carry an inSource suppression with the justification.
  EXPECT_NE(sarif.find("\"id\": \"unannotated-shared-static\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"unannotated-shared-static\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 2"), std::string::npos);
  EXPECT_NE(sarif.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(sarif.find("unit-test justification"), std::string::npos);
}

TEST(AnalyzerReport, StaleMarkerEscapeRule) {
  // Backtick/quoted mentions of the marker words are prose, not markers —
  // no stale-suppression finding for documentation about the grammar.
  const AnalysisResult r = AnalyzeSources({{"doc.cpp",
    "// Write `det-ok: <why>` or \"analyzer-ok\" to suppress findings.\n"
    "int F() { return 1; }\n"}});
  EXPECT_EQ(r.findings.size(), 0u);
}

TEST(AnalyzerReport, SuppressedFindingsKeepJustification) {
  const AnalysisResult r = AnalyzeSources({{"s.cpp",
    "int Seed() { return rand(); }  // det-ok: unit-test justification\n"}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_TRUE(r.findings[0].suppressed);
  EXPECT_EQ(r.findings[0].justification, "unit-test justification");
  EXPECT_EQ(r.Unsuppressed(), 0);
}

}  // namespace
