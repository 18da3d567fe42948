/// \file driver.h
/// Orchestration for psoodb-analyze: collects sources, lexes everything,
/// builds the global SymbolIndex (two passes), runs the checks per file,
/// applies suppressions, and renders human/JSON reports.
///
/// Suppression markers (same line as the finding, inside any comment):
///
///   `det-ok`, followed by a colon and a justification, covers det-hazard
///   and unordered-iter (legacy grammar from the retired regex lint);
///   `analyzer-ok` — optionally followed by a parenthesized, comma-separated
///   check list — covers the listed checks, or every check on the line when
///   no list is given, and likewise takes `: <justification>`.
///
/// A marker that suppresses a finding but carries no justification (or names
/// an unknown check) produces a `bad-suppression` finding; a marker that
/// suppresses nothing at all produces `stale-suppression`. Neither can
/// itself be suppressed. Marker words preceded by a backtick or quote are
/// prose, not markers.

#ifndef PSOODB_TOOLS_ANALYZER_DRIVER_H_
#define PSOODB_TOOLS_ANALYZER_DRIVER_H_

#include <string>
#include <utility>
#include <vector>

#include "analyzer/checks.h"

namespace psoodb::analyzer {

struct AnalysisResult {
  std::vector<Finding> findings;  ///< ordered by (file, line, check)
  int files_scanned = 0;
  std::vector<std::string> errors;  ///< unreadable paths etc.

  int Unsuppressed() const {
    int n = 0;
    for (const Finding& f : findings) {
      if (!f.suppressed) ++n;
    }
    return n;
  }
};

/// Analyzes files and directories. Directories are walked recursively
/// (skipping hidden and build*/ entries) collecting .cpp/.cc/.h/.hpp in
/// sorted order; explicitly named files are always lexed, whatever their
/// extension (this is how the .cxx test fixtures get analyzed without being
/// picked up by tree scans).
AnalysisResult AnalyzePaths(const std::vector<std::string>& paths);

/// In-memory variant for unit tests: (path, source) pairs.
AnalysisResult AnalyzeSources(
    const std::vector<std::pair<std::string, std::string>>& sources);

/// Human-readable report to `out` (one line per finding + summary).
void PrintReport(const AnalysisResult& r, bool verbose, std::string* out);

/// JSON report (schema documented in docs/ANALYZER.md).
std::string JsonReport(const AnalysisResult& r);

}  // namespace psoodb::analyzer

#endif  // PSOODB_TOOLS_ANALYZER_DRIVER_H_
