/// \file main.cpp
/// CLI for psoodb-analyze.
///
///   psoodb_analyze [--json FILE] [--sarif FILE] [--only CHECK,...]
///                  [--verbose] [--list-checks] [PATH...]
///
/// PATHs default to `src bench tests tools` (relative to the working
/// directory, which ctest pins to the repository root).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyzer/driver.h"
#include "analyzer/sarif.h"

namespace {

constexpr int kUsageError = 125;

/// The registered check names, comma-joined and wrapped for terminal output.
/// Generated from the registry so --help can never drift from --list-checks.
std::string CheckCatalog(const std::string& indent) {
  std::string out;
  std::string line = indent;
  for (const std::string& c : psoodb::analyzer::AllCheckNames()) {
    const std::string item = line.size() == indent.size() ? c : ", " + c;
    if (line.size() + item.size() > 78) {
      out += line + ",\n";
      line = indent + c;
    } else {
      line += item;
    }
  }
  out += line + "\n";
  return out;
}

int Usage() {
  std::cerr
      << "usage: psoodb_analyze [--json FILE] [--sarif FILE]\n"
         "                      [--only CHECK[,CHECK...]] [--verbose]\n"
         "                      [--list-checks] [PATH...]\n"
         "\n"
         "Scope-aware coroutine, determinism, concurrency & obligation\n"
         "static analyzer for the psoodb simulator. PATHs default to:\n"
         "src bench tests tools\n"
         "\n"
         "  --json FILE    also write the findings as JSON (schema v2)\n"
         "  --sarif FILE   also write SARIF 2.1.0 (GitHub code scanning)\n"
         "  --only LIST    report only the named checks (comma-separated);\n"
         "                 analysis still runs in full, so suppression\n"
         "                 staleness is judged against every check, not the\n"
         "                 subset\n"
         "  --verbose      also print suppressed findings\n"
         "  --list-checks  print every check name and exit 0\n"
         "\n"
         "checks:\n"
      << CheckCatalog("  ")
      << "\n"
         "exit status: the number of unsuppressed (reported) findings,\n"
         "capped at 100; 125 means a usage error (bad flag, unknown check\n"
         "name, unwritable output file)\n";
  return kUsageError;
}

/// Splits a comma-separated check list, validating against --list-checks.
bool ParseOnly(const std::string& arg, std::vector<std::string>* only) {
  const std::vector<std::string> valid = psoodb::analyzer::AllCheckNames();
  std::string name;
  for (std::size_t i = 0; i <= arg.size(); ++i) {
    if (i == arg.size() || arg[i] == ',') {
      if (!name.empty()) {
        if (std::find(valid.begin(), valid.end(), name) == valid.end()) {
          std::cerr << "psoodb-analyze: unknown check '" << name
                    << "'; valid checks are:\n"
                    << CheckCatalog("  ");
          return false;
        }
        only->push_back(name);
        name.clear();
      }
    } else {
      name += arg[i];
    }
  }
  return !only->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string sarif_path;
  std::vector<std::string> only;
  bool verbose = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) return Usage();
      json_path = argv[++i];
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) return Usage();
      sarif_path = argv[++i];
    } else if (arg == "--only") {
      if (i + 1 >= argc) return Usage();
      if (!ParseOnly(argv[++i], &only)) return kUsageError;
    } else if (arg.rfind("--only=", 0) == 0) {
      if (!ParseOnly(arg.substr(7), &only)) return kUsageError;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--list-checks") {
      for (const std::string& c : psoodb::analyzer::AllCheckNames()) {
        std::cout << c << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "bench", "tests", "tools"};

  psoodb::analyzer::AnalysisResult result =
      psoodb::analyzer::AnalyzePaths(paths);

  // --only filters *reporting*, after suppression matching, so a marker's
  // staleness never depends on which subset this invocation asked for.
  if (!only.empty()) {
    std::erase_if(result.findings, [&](const psoodb::analyzer::Finding& f) {
      return std::find(only.begin(), only.end(), f.check) == only.end();
    });
  }

  std::string report;
  psoodb::analyzer::PrintReport(result, verbose, &report);
  std::cout << report;

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "psoodb-analyze: cannot write " << json_path << "\n";
      return kUsageError;
    }
    out << psoodb::analyzer::JsonReport(result);
  }
  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "psoodb-analyze: cannot write " << sarif_path << "\n";
      return kUsageError;
    }
    out << psoodb::analyzer::SarifReport(result);
  }

  const int unsuppressed = result.Unsuppressed();
  return unsuppressed > 100 ? 100 : unsuppressed;
}
