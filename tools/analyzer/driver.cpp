#include "analyzer/driver.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "analyzer/callgraph.h"
#include "analyzer/concurrency.h"
#include "analyzer/dataflow.h"
#include "analyzer/frames.h"
#include "analyzer/lexer.h"
#include "analyzer/protocol_spec.h"
#include "analyzer/symbols.h"

namespace psoodb::analyzer {

namespace {

namespace fs = std::filesystem;

bool HasScannedExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".h" || ext == ".hpp";
}

bool SkipDirectory(const fs::path& p) {
  const std::string name = p.filename().string();
  if (name.empty() || name[0] == '.') return true;
  return name.rfind("build", 0) == 0;  // build/, build-tsan/, build_dbg/ ...
}

void CollectFiles(const std::string& root, std::vector<std::string>* files,
                  std::vector<std::string>* errors) {
  std::error_code ec;
  const fs::file_status st = fs::status(root, ec);
  if (ec) {
    errors->push_back("cannot stat: " + root);
    return;
  }
  if (fs::is_regular_file(st)) {
    files->push_back(root);  // explicit files always analyzed (.cxx fixtures)
    return;
  }
  if (!fs::is_directory(st)) {
    errors->push_back("not a file or directory: " + root);
    return;
  }
  std::vector<std::string> found;
  fs::recursive_directory_iterator it(root, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (it->is_directory(ec)) {
      if (SkipDirectory(it->path())) it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file(ec) && HasScannedExtension(it->path())) {
      found.push_back(it->path().generic_string());
    }
  }
  std::sort(found.begin(), found.end());  // deterministic scan order
  files->insert(files->end(), found.begin(), found.end());
}

std::string TrimCopy(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

struct Marker {
  bool all = false;                 ///< bare `analyzer-ok:` covers every check
  std::vector<std::string> checks;  ///< named checks; `det-ok` expands to two
  std::string justification;
  std::vector<std::string> unknown_checks;
  bool used = false;
};

bool MarkerCovers(const Marker& m, const std::string& check) {
  // Meta-checks about the markers themselves are never suppressible.
  if (check == kCheckBadSuppression || check == kCheckStaleSuppression) {
    return false;
  }
  if (m.all) return true;
  return std::find(m.checks.begin(), m.checks.end(), check) != m.checks.end();
}

/// Finds a marker word in comment text, skipping mentions escaped by a
/// preceding backtick or quote (so prose *about* the grammar — like this
/// file's own doc comments — doesn't parse as a marker).
std::size_t FindMarker(const std::string& comment, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = comment.find(word, pos)) != std::string::npos) {
    const char before = pos == 0 ? ' ' : comment[pos - 1];
    if (before != '`' && before != '"' && before != '\'') return pos;
    pos += word.size();
  }
  return std::string::npos;
}

/// Parses the suppression markers inside one line's comment text.
std::vector<Marker> ParseMarkers(const std::string& comment) {
  std::vector<Marker> out;
  const std::vector<std::string> valid = AllCheckNames();

  // Legacy: `det-ok` or `det-ok: why`. Covers the determinism checks.
  std::size_t pos = FindMarker(comment, "det-ok");
  if (pos != std::string::npos) {
    Marker m;
    m.checks = {kCheckDetHazard, kCheckUnorderedIter};
    std::size_t after = pos + 6;
    if (after < comment.size() && comment[after] == ':') {
      std::string rest = comment.substr(after + 1);
      const std::size_t cut = rest.find("*/");
      if (cut != std::string::npos) rest = rest.substr(0, cut);
      m.justification = TrimCopy(rest);
    }
    out.push_back(std::move(m));
  }

  // The `analyzer-ok` grammar: optional parenthesized check list, then a
  // colon and the justification.
  pos = FindMarker(comment, "analyzer-ok");
  if (pos != std::string::npos) {
    Marker m;
    std::size_t after = pos + 11;
    if (after >= comment.size() || comment[after] != '(') m.all = true;
    if (after < comment.size() && comment[after] == '(') {
      const std::size_t close = comment.find(')', after);
      if (close != std::string::npos) {
        std::string name;
        for (std::size_t k = after + 1; k <= close; ++k) {
          if (k == close || comment[k] == ',') {
            name = TrimCopy(name);
            if (!name.empty()) {
              if (std::find(valid.begin(), valid.end(), name) != valid.end()) {
                m.checks.push_back(name);
              } else {
                m.unknown_checks.push_back(name);
              }
            }
            name.clear();
          } else {
            name += comment[k];
          }
        }
        after = close + 1;
      }
    }
    if (after < comment.size() && comment[after] == ':') {
      std::string rest = comment.substr(after + 1);
      const std::size_t cut = rest.find("*/");
      if (cut != std::string::npos) rest = rest.substr(0, cut);
      m.justification = TrimCopy(rest);
    }
    out.push_back(std::move(m));
  }
  return out;
}

void ApplySuppressions(const LexedFile& lf, std::vector<Finding>* findings) {
  std::map<int, std::vector<Marker>> markers;
  for (const auto& [line, text] : lf.comments_by_line) {
    auto parsed = ParseMarkers(text);
    if (!parsed.empty()) markers[line] = std::move(parsed);
  }
  if (markers.empty()) return;

  std::vector<Finding> extra;
  for (Finding& f : *findings) {
    auto it = markers.find(f.line);
    if (it == markers.end()) continue;
    for (Marker& m : it->second) {
      if (!MarkerCovers(m, f.check)) continue;
      f.suppressed = true;
      f.justification = m.justification;
      m.used = true;
      break;
    }
  }
  for (auto& [line, ms] : markers) {
    for (const Marker& m : ms) {
      if (m.used && m.justification.empty()) {
        extra.push_back(
            Finding{lf.path, line, kCheckBadSuppression,
                    "suppression marker without a justification — write "
                    "`det-ok: <why>` / `analyzer-ok(...): <why>`",
                    false, "", ""});
      }
      for (const std::string& u : m.unknown_checks) {
        extra.push_back(Finding{lf.path, line, kCheckBadSuppression,
                                "analyzer-ok names unknown check '" + u +
                                    "' (see --list-checks)",
                                false, "", ""});
      }
      // A marker that suppressed nothing is stale: the hazard it excused is
      // gone (or never fired). Unknown-check markers already got
      // bad-suppression above; don't double-report them.
      if (!m.used && m.unknown_checks.empty()) {
        extra.push_back(
            Finding{lf.path, line, kCheckStaleSuppression,
                    "suppression marker matches no finding on this line — "
                    "retire it (or fix the marker placement)",
                    false, "", ""});
      }
    }
  }
  findings->insert(findings->end(), extra.begin(), extra.end());
}

AnalysisResult Analyze(std::vector<LexedFile> files,
                       std::vector<std::string> errors) {
  AnalysisResult result;
  result.errors = std::move(errors);
  result.files_scanned = static_cast<int>(files.size());

  // Frames for every file up front: symbol pass B tells members from locals
  // by them, and the call graph needs the whole tree's frames before any
  // per-file check can consult MayBlock().
  std::vector<FrameIndex> frames(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    frames[i] = BuildFrames(files[i]);
  }

  SymbolIndex sym;
  for (const LexedFile& lf : files) IndexSymbolsPassA(lf, sym);
  for (std::size_t i = 0; i < files.size(); ++i) {
    IndexSymbolsPassB(files[i], frames[i], sym);
  }

  CallGraph cg;
  for (std::size_t i = 0; i < files.size(); ++i) {
    AddCallGraphFacts(files[i], frames[i], sym, cg);
  }
  FinalizeCallGraph(cg);

  const ObligationIndex oi = BuildObligationIndex(files, frames, sym, cg);

  for (std::size_t i = 0; i < files.size(); ++i) {
    std::vector<Finding> found = RunChecks(files[i], frames[i], sym);
    std::vector<Finding> conc =
        RunConcurrencyChecks(files[i], frames[i], sym, cg);
    found.insert(found.end(), conc.begin(), conc.end());
    std::vector<Finding> obli =
        RunObligationChecks(files[i], frames[i], sym, oi);
    found.insert(found.end(), obli.begin(), obli.end());
    std::vector<Finding> proto = RunProtocolChecks(files[i]);
    found.insert(found.end(), proto.begin(), proto.end());
    ApplySuppressions(files[i], &found);
    result.findings.insert(result.findings.end(), found.begin(), found.end());
  }

  // Snippets for the SARIF fingerprints: the finding line's tokens.
  std::map<std::string, const LexedFile*> by_path;
  for (const LexedFile& lf : files) by_path[lf.path] = &lf;
  for (Finding& f : result.findings) {
    auto it = by_path.find(f.file);
    if (it == by_path.end()) continue;
    for (const Token& tk : it->second->tokens) {
      if (tk.line > f.line) break;
      if (tk.line != f.line) continue;
      if (!f.snippet.empty()) f.snippet += ' ';
      f.snippet += tk.text;
    }
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  return result;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

namespace {

/// Reads and lexes one file; a LexedFile with an empty path means the read
/// failed (path reported via `error`).
LexedFile ReadAndLex(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read: " + path;
    return LexedFile{};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return Lex(path, ss.str());
}

}  // namespace

AnalysisResult AnalyzePaths(const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  std::vector<std::string> errors;
  for (const std::string& p : paths) CollectFiles(p, &files, &errors);

  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  for (const std::string& path : files) {
    std::string error;
    LexedFile lf = ReadAndLex(path, &error);
    if (lf.path.empty()) {
      errors.push_back(std::move(error));
    } else {
      lexed.push_back(std::move(lf));
    }
  }
  return Analyze(std::move(lexed), std::move(errors));
}

AnalysisResult AnalyzeSources(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<LexedFile> lexed;
  lexed.reserve(sources.size());
  for (const auto& [path, src] : sources) {
    lexed.push_back(Lex(path, src));
  }
  return Analyze(std::move(lexed), {});
}

void PrintReport(const AnalysisResult& r, bool verbose, std::string* out) {
  int suppressed = 0;
  for (const Finding& f : r.findings) {
    if (f.suppressed) {
      ++suppressed;
      if (verbose) {
        *out += f.file + ":" + std::to_string(f.line) + ": [" + f.check +
                "] suppressed (" + f.justification + ")\n";
      }
      continue;
    }
    *out += f.file + ":" + std::to_string(f.line) + ": [" + f.check + "] " +
            f.message + "\n";
  }
  for (const std::string& e : r.errors) {
    *out += "psoodb-analyze: warning: " + e + "\n";
  }
  *out += "psoodb-analyze: " + std::to_string(r.files_scanned) +
          " file(s), " + std::to_string(r.Unsuppressed()) +
          " finding(s), " + std::to_string(suppressed) + " suppressed\n";
}

std::string JsonReport(const AnalysisResult& r) {
  std::string j = "{\n  \"tool\": \"psoodb-analyze\",\n  \"version\": 2,\n";
  j += "  \"files_scanned\": " + std::to_string(r.files_scanned) + ",\n";
  j += "  \"unsuppressed\": " + std::to_string(r.Unsuppressed()) + ",\n";
  j += "  \"findings\": [";
  bool first = true;
  for (const Finding& f : r.findings) {
    j += first ? "\n" : ",\n";
    first = false;
    j += "    {\"file\": \"" + JsonEscape(f.file) + "\", \"line\": " +
         std::to_string(f.line) + ", \"check\": \"" + JsonEscape(f.check) +
         "\", \"message\": \"" + JsonEscape(f.message) + "\", " +
         "\"suppressed\": " + (f.suppressed ? "true" : "false") +
         ", \"justification\": \"" + JsonEscape(f.justification) + "\"}";
  }
  j += first ? "]\n" : "\n  ]\n";
  j += "}\n";
  return j;
}

}  // namespace psoodb::analyzer
