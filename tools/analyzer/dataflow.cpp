#include "analyzer/dataflow.h"

#include <algorithm>
#include <cstddef>

namespace psoodb::analyzer {

namespace {

using Tokens = std::vector<Token>;

std::string FileStem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// Exit-path rules run on simulator sources and on `.cxx` fixtures only:
/// bench harnesses and tests use their own idioms (futures held across
/// scopes, promises resolved by the test body) that the handler-shape rules
/// were not written for.
bool InSimScope(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".cxx") == 0) {
    return true;
  }
  if (path.rfind("src/", 0) == 0) return true;
  return path.find("/src/") != std::string::npos;
}

/// tokens[i] == "(": returns index of the matching ")" or t.size().
std::size_t MatchParen(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].Is("(")) ++depth;
    if (t[j].Is(")") && --depth == 0) return j;
  }
  return t.size();
}

/// tokens[i] == "<": index just past the matching ">" (">>" counts twice);
/// i+1 when the span is not a template-argument list.
std::size_t SkipAngles(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].Is("<")) {
      ++depth;
    } else if (t[j].Is(">")) {
      if (--depth == 0) return j + 1;
    } else if (t[j].Is(">>")) {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (t[j].Is(";") || t[j].Is("{")) {
      return i + 1;
    }
  }
  return i + 1;
}

/// Top-level comma-separated identifiers inside the paren group at t[open],
/// in order (last identifier of each chunk, `std` dropped).
std::vector<std::string> ParenArgIdents(const Tokens& t, std::size_t open) {
  std::vector<std::string> out;
  std::string last;
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].Is("(")) {
      ++depth;
      continue;
    }
    if (t[j].Is(")")) {
      if (--depth == 0) {
        if (!last.empty()) out.push_back(last);
        break;
      }
      continue;
    }
    if (depth != 1) continue;
    if (t[j].Is(",")) {
      if (!last.empty()) out.push_back(last);
      last.clear();
    } else if (t[j].IsIdent() && t[j].text != "std") {
      last = t[j].text;
    }
  }
  return out;
}

/// The function declarator an obligation macro at t[i] annotates, walking
/// back over chained annotation macros and trailing specifiers to the
/// parameter list. Mirrors the indexing walk in symbols.cpp but also
/// reports the parameter-list span (for the REPLIES-needs-a-promise rule).
struct DeclTarget {
  std::string name;
  std::size_t params_open = 0;
  std::size_t params_close = 0;
};

bool ObligationDeclTarget(const Tokens& t, std::size_t i, DeclTarget* out) {
  if (i == 0) return false;
  std::size_t p = i - 1;
  while (true) {
    if (t[p].IsIdent() &&
        (t[p].text == "override" || t[p].text == "final" ||
         t[p].text == "const" || t[p].text == "noexcept" ||
         IsAnnotationMacro(t[p].text))) {
      if (p == 0) return false;
      --p;
      continue;
    }
    if (!t[p].Is(")")) return false;
    int depth = 0;
    std::size_t q = p;
    while (true) {
      if (t[q].Is(")")) {
        ++depth;
      } else if (t[q].Is("(") && --depth == 0) {
        break;
      }
      if (q == 0) return false;
      --q;
    }
    if (q == 0) return false;
    const Token& before = t[q - 1];
    if (before.IsIdent() &&
        (IsAnnotationMacro(before.text) || before.text == "noexcept")) {
      p = q - 1;
      continue;
    }
    if (!before.IsIdent()) return false;
    out->name = before.text;
    out->params_open = q;
    out->params_close = p;
    return true;
  }
}

/// AwaitCallbacks marks the batch dead on its abort path too, so for `batch`
/// a release reached before an abort branch — the AwaitCallbacks its
/// condition awaits — also covers that branch.
bool ReleasedOnAbort(const std::string& resource) {
  return resource == "batch";
}

bool IsHandlerName(const std::string& name) {
  if (name.rfind("On", 0) == 0 && name.size() > 2 &&
      name[2] >= 'A' && name[2] <= 'Z') {
    return true;
  }
  return name.rfind("Handle", 0) == 0 && name.size() > 6 &&
         name[6] >= 'A' && name[6] <= 'Z';
}

/// One frame's regions: the body minus its abort branches ("main"), plus
/// each abort branch, plus the Spawn(...) argument spans whose calls
/// transfer their obligations to a detached coroutine. An abort branch is
/// the statement an `if` runs when its parentheses test an abort outcome:
/// they `co_await` a task (which evaluates to true when it ended aborted)
/// or ask the deadlock detector (`OnWait`, `CheckVictim`).
struct FrameRegions {
  std::size_t body_open = 0;
  std::size_t body_close = 0;
  struct Branch {
    std::size_t test = 0;   ///< token index of the `if`
    std::size_t open = 0;   ///< the branch's '{', or the condition's ')'
    std::size_t close = 0;  ///< the matching '}', or one past the ';'
    int line = 0;           ///< line of the condition's ')'
  };
  std::vector<Branch> branches;
  std::vector<std::pair<std::size_t, std::size_t>> spawn_spans;

  int InBranch(std::size_t j) const {
    for (std::size_t b = 0; b < branches.size(); ++b) {
      if (j > branches[b].open && j < branches[b].close) {
        return static_cast<int>(b);
      }
    }
    return -1;
  }
  bool InSpawn(std::size_t j) const {
    for (const auto& [open, close] : spawn_spans) {
      if (j > open && j < close) return true;
    }
    return false;
  }
};

/// True if the `if` parentheses (open, close) test an abort outcome.
bool IsAbortTest(const Tokens& t, std::size_t open, std::size_t close) {
  for (std::size_t k = open + 1; k < close; ++k) {
    if (t[k].Is("co_await")) return true;
    if ((t[k].Is("OnWait") || t[k].Is("CheckVictim")) && k + 1 < close &&
        t[k + 1].Is("(")) {
      return true;
    }
  }
  return false;
}

FrameRegions BuildRegions(const LexedFile& f, const FrameIndex& fx,
                          std::size_t fi) {
  const Tokens& t = f.tokens;
  const Frame& fr = fx.frames[fi];
  FrameRegions r;
  r.body_open = static_cast<std::size_t>(fr.body_open);
  r.body_close = static_cast<std::size_t>(fr.body_close);
  for (std::size_t j = r.body_open + 1; j < r.body_close; ++j) {
    if (!t[j].IsIdent()) continue;
    if (t[j].Is("if") && fx.owner[j] == static_cast<int>(fi) &&
        j + 1 < t.size() && t[j + 1].Is("(") && fx.match[j + 1] > 0) {
      const std::size_t cond_close = static_cast<std::size_t>(fx.match[j + 1]);
      if (cond_close + 1 >= t.size() || !IsAbortTest(t, j + 1, cond_close)) {
        continue;
      }
      FrameRegions::Branch b{j, cond_close, 0, t[cond_close].line};
      const std::size_t first = cond_close + 1;
      if (t[first].Is("{") && fx.match[first] > 0) {
        b.open = first;
        b.close = static_cast<std::size_t>(fx.match[first]);
      } else {
        // A single statement: up to its ';' outside any brackets.
        int depth = 0;
        std::size_t k = first;
        for (; k < r.body_close; ++k) {
          if (t[k].Is("(") || t[k].Is("{") || t[k].Is("[")) ++depth;
          if (t[k].Is(")") || t[k].Is("}") || t[k].Is("]")) --depth;
          if (depth == 0 && t[k].Is(";")) break;
        }
        b.close = k + 1;
      }
      r.branches.push_back(b);
      continue;
    }
    if (t[j].Is("Spawn") && j + 1 < t.size() && t[j + 1].Is("(")) {
      r.spawn_spans.emplace_back(j + 1, MatchParen(t, j + 1));
    }
  }
  return r;
}

/// Per-branch facts both exit-path checks read.
struct BranchFacts {
  bool returns = false;     ///< a frame-owned return / co_return inside
  bool propagates = false;  ///< `co_await sim::EndAborted()`: the awaiter
                            ///< owns the abort path from here
};

/// lock-leak over one frame: exit-path enumeration of the frame's acquire
/// events against its release events, per resource class.
void CheckFrameObligations(const LexedFile& f, const FrameIndex& fx,
                           std::size_t fi, const std::string& stem,
                           const ObligationIndex& oi,
                           std::vector<Finding>* out) {
  const Tokens& t = f.tokens;
  const Frame& fr = fx.frames[fi];
  const FrameRegions rg = BuildRegions(f, fx, fi);

  // Resources this frame is declared to hand onward: exempt.
  std::set<std::string> exempt;
  if (const ObligationIndex::Entry* own = oi.Lookup(fr.name, stem)) {
    exempt = own->acquires;
  }

  struct Acq {
    std::size_t pos;
    int line;
    std::string fn;
  };
  std::map<std::string, std::vector<Acq>> acquires;
  std::map<std::string, std::vector<std::size_t>> releases;  // main region
  std::vector<std::set<std::string>> branch_releases(rg.branches.size());
  std::vector<BranchFacts> facts(rg.branches.size());
  std::vector<std::size_t> exits;  // frame-owned return/co_return, main

  for (std::size_t j = rg.body_open + 1; j < rg.body_close; ++j) {
    if (!t[j].IsIdent()) continue;
    const int b = rg.InBranch(j);
    const bool owned = fx.owner[j] == static_cast<int>(fi);
    if ((t[j].Is("return") || t[j].Is("co_return")) && owned) {
      if (b >= 0) {
        facts[static_cast<std::size_t>(b)].returns = true;
      } else {
        exits.push_back(j);
      }
      continue;
    }
    if (t[j].Is("EndAborted") && b >= 0) {
      facts[static_cast<std::size_t>(b)].propagates = true;
      continue;
    }
    if (j + 1 >= t.size() || !t[j + 1].Is("(")) continue;
    if (rg.InSpawn(j)) continue;  // obligation moves to the spawned coroutine
    const ObligationIndex::Entry* e = oi.Lookup(t[j].text, stem);
    if (e == nullptr) continue;
    if (b >= 0) {
      branch_releases[static_cast<std::size_t>(b)].insert(
          e->releases.begin(), e->releases.end());
      continue;
    }
    for (const std::string& r : e->releases) releases[r].push_back(j);
    // Acquire events are frame-owned only: an acquire inside a nested lambda
    // belongs to whichever context later runs the lambda, not to this frame.
    if (owned) {
      for (const std::string& r : e->acquires) {
        acquires[r].push_back(Acq{j, t[j].line, t[j].text});
      }
    }
  }

  for (const auto& [res, acqs] : acquires) {
    if (exempt.count(res) != 0) continue;
    const std::vector<std::size_t>& rels = releases[res];
    const Acq& first = acqs.front();
    if (rels.empty()) {
      out->push_back(Finding{
          f.path, first.line, kCheckLockLeak,
          "'" + fr.name + "' acquires '" + res + "' (" + first.fn +
              ") but never releases it — release on every path, or annotate "
              "the function PSOODB_ACQUIRES(" +
              res + ") if ownership transfers onward",
          false, "", ""});
      continue;
    }
    for (std::size_t p : exits) {
      if (p <= first.pos) continue;
      const bool released_before = std::any_of(
          rels.begin(), rels.end(),
          [&](std::size_t r) { return r > first.pos && r < p; });
      if (!released_before) {
        out->push_back(Finding{
            f.path, t[p].line, kCheckLockLeak,
            "early exit leaks '" + res + "' acquired at line " +
                std::to_string(first.line) + " (" + first.fn + ")",
            false, "", ""});
      }
    }
    for (std::size_t b = 0; b < rg.branches.size(); ++b) {
      const FrameRegions::Branch& br = rg.branches[b];
      // An acquire the branch's own test awaits ended aborted: it holds
      // nothing, so only acquires before the `if` are owed here.
      const bool acquired_before = std::any_of(
          acqs.begin(), acqs.end(),
          [&](const Acq& a) { return a.pos < br.test; });
      if (!acquired_before) continue;
      const bool released_in_branch = branch_releases[b].count(res) != 0;
      const bool released_pre_abort =
          ReleasedOnAbort(res) &&
          std::any_of(rels.begin(), rels.end(),
                      [&](std::size_t r) { return r < br.open; });
      const bool released_after =
          !facts[b].returns &&
          std::any_of(rels.begin(), rels.end(),
                      [&](std::size_t r) { return r > br.close; });
      if (released_in_branch || facts[b].propagates || released_pre_abort ||
          released_after) {
        continue;
      }
      out->push_back(Finding{
          f.path, br.line, kCheckLockLeak,
          "abort branch leaks '" + res + "' acquired at line " +
              std::to_string(first.line) + " (" + first.fn +
              ") — release it in this branch, end the task aborted, or fall "
              "through to a release",
          false, "", ""});
    }
  }
}

/// The frame's by-value sim::Promise parameter, if any.
struct PromiseParam {
  bool present = false;
  bool named = false;
  std::string name;
};

PromiseParam FindPromiseParam(const Tokens& t, const Frame& fr) {
  PromiseParam out;
  if (fr.params_open < 0 || fr.params_close < 0) return out;
  for (std::size_t k = static_cast<std::size_t>(fr.params_open) + 1;
       k < static_cast<std::size_t>(fr.params_close); ++k) {
    if (!t[k].IsIdent() || !t[k].Is("Promise")) continue;
    std::size_t a = k + 1;
    if (a < t.size() && t[a].Is("<")) a = SkipAngles(t, a);
    if (a >= t.size()) return out;
    if (t[a].Is("&") || t[a].Is("&&") || t[a].Is("*")) continue;  // by-ref
    out.present = true;
    if (t[a].IsIdent()) {
      out.named = true;
      out.name = t[a].text;
    }
    return out;
  }
  return out;
}

/// reply-obligation over one handler frame: the promise must be consumed
/// (std::move'd onward or .Set() directly) on every exit path.
void CheckFrameReply(const LexedFile& f, const FrameIndex& fx, std::size_t fi,
                     const PromiseParam& pp, std::vector<Finding>* out) {
  const Tokens& t = f.tokens;
  const Frame& fr = fx.frames[fi];
  if (!pp.named) {
    out->push_back(Finding{
        f.path, fr.line, kCheckReplyObligation,
        "handler '" + fr.name +
            "' never consumes its sim::Promise reply parameter — every exit "
            "path must send exactly one reply",
        false, "", ""});
    return;
  }
  const FrameRegions rg = BuildRegions(f, fx, fi);
  const std::string& p = pp.name;

  std::vector<std::size_t> consumed;  // main region (nested lambdas included)
  std::vector<char> branch_consumed(rg.branches.size(), 0);
  std::vector<BranchFacts> facts(rg.branches.size());
  std::vector<std::size_t> exits;

  for (std::size_t j = rg.body_open + 1; j < rg.body_close; ++j) {
    if (!t[j].IsIdent()) continue;
    const int b = rg.InBranch(j);
    if ((t[j].Is("return") || t[j].Is("co_return")) &&
        fx.owner[j] == static_cast<int>(fi)) {
      if (b >= 0) {
        facts[static_cast<std::size_t>(b)].returns = true;
      } else {
        exits.push_back(j);
      }
      continue;
    }
    if (t[j].Is("EndAborted") && b >= 0) {
      facts[static_cast<std::size_t>(b)].propagates = true;
      continue;
    }
    const bool moved = t[j].Is("move") && j + 2 < t.size() &&
                       t[j + 1].Is("(") && t[j + 2].IsIdent() &&
                       t[j + 2].text == p;
    const bool set = t[j].text == p && j + 3 < t.size() && t[j + 1].Is(".") &&
                     t[j + 2].Is("Set") && t[j + 3].Is("(");
    if (!moved && !set) continue;
    if (b >= 0) {
      branch_consumed[static_cast<std::size_t>(b)] = 1;
    } else {
      consumed.push_back(j);
    }
  }

  const bool any_branch_consumed =
      std::any_of(branch_consumed.begin(), branch_consumed.end(),
                  [](char v) { return v != 0; });
  if (consumed.empty() && !any_branch_consumed) {
    out->push_back(Finding{
        f.path, fr.line, kCheckReplyObligation,
        "handler '" + fr.name + "' never consumes its reply promise '" + p +
            "' — every exit path must send exactly one reply",
        false, "", ""});
    return;
  }
  for (std::size_t e : exits) {
    const bool consumed_before = std::any_of(
        consumed.begin(), consumed.end(),
        [&](std::size_t cpos) { return cpos < e; });
    if (!consumed_before) {
      out->push_back(Finding{
          f.path, t[e].line, kCheckReplyObligation,
          "exit before consuming reply promise '" + p +
              "' — this path of '" + fr.name + "' drops the reply",
          false, "", ""});
    }
  }
  for (std::size_t b = 0; b < rg.branches.size(); ++b) {
    const FrameRegions::Branch& br = rg.branches[b];
    // Another branch's reply does not cover this one: main-region
    // consumption only.
    const bool consumed_pre = std::any_of(
        consumed.begin(), consumed.end(),
        [&](std::size_t cpos) { return cpos < br.open; });
    const bool consumed_after =
        !facts[b].returns &&
        std::any_of(consumed.begin(), consumed.end(),
                    [&](std::size_t cpos) { return cpos > br.close; });
    if (branch_consumed[b] != 0 || facts[b].propagates || consumed_pre ||
        consumed_after) {
      continue;
    }
    out->push_back(Finding{
        f.path, br.line, kCheckReplyObligation,
        "abort branch of '" + fr.name + "' drops the reply — consume '" + p +
            "' in this branch",
        false, "", ""});
  }
}

/// obligation-annotation conformance at the macro sites of one file.
void CheckAnnotationSites(const LexedFile& f, const SymbolIndex& sym,
                          std::vector<Finding>* out) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].IsIdent()) continue;
    const std::string& s = t[i].text;
    const bool res_macro =
        s == "PSOODB_ACQUIRES" || s == "PSOODB_RELEASES";
    if (!res_macro && s != "PSOODB_REPLIES") continue;
    if (i > 0 && t[i - 1].IsIdent() && t[i - 1].Is("define")) continue;
    const int line = t[i].line;

    if (res_macro) {
      if (i + 1 >= t.size() || !t[i + 1].Is("(")) {
        out->push_back(Finding{
            f.path, line, kCheckObligationAnnotation,
            s + " takes exactly one resource-class argument", false, "", ""});
        continue;
      }
      const std::vector<std::string> args = ParenArgIdents(t, i + 1);
      if (args.size() != 1) {
        out->push_back(Finding{
            f.path, line, kCheckObligationAnnotation,
            s + " takes exactly one resource-class argument", false, "", ""});
      } else if (!IsKnownResourceClass(args[0])) {
        out->push_back(Finding{
            f.path, line, kCheckObligationAnnotation,
            "unknown resource class '" + args[0] +
                "' (known: batch, copy, lock, pin)",
            false, "", ""});
      }
      DeclTarget dt;
      if (!ObligationDeclTarget(t, i, &dt)) {
        out->push_back(Finding{
            f.path, line, kCheckObligationAnnotation,
            s + " must follow a function declarator's parameter list", false,
            "", ""});
        continue;
      }
      if (s == "PSOODB_ACQUIRES" && args.size() == 1) {
        auto it = sym.obligations.find(dt.name);
        if (it != sym.obligations.end() &&
            it->second.releases.count(args[0]) != 0) {
          out->push_back(Finding{
              f.path, line, kCheckObligationAnnotation,
              "'" + dt.name + "' is annotated both PSOODB_ACQUIRES(" +
                  args[0] + ") and PSOODB_RELEASES(" + args[0] +
                  ") — a call cannot do both",
              false, "", ""});
        }
      }
      continue;
    }

    // PSOODB_REPLIES
    if (i + 1 < t.size() && t[i + 1].Is("(")) {
      out->push_back(Finding{f.path, line, kCheckObligationAnnotation,
                             "PSOODB_REPLIES takes no arguments", false, "",
                             ""});
      continue;
    }
    DeclTarget dt;
    if (!ObligationDeclTarget(t, i, &dt)) {
      out->push_back(Finding{
          f.path, line, kCheckObligationAnnotation,
          "PSOODB_REPLIES must follow a function declarator's parameter list",
          false, "", ""});
      continue;
    }
    bool has_promise = false;
    for (std::size_t k = dt.params_open + 1; k < dt.params_close; ++k) {
      if (t[k].Is("Promise")) {
        has_promise = true;
        break;
      }
    }
    if (!has_promise) {
      out->push_back(Finding{
          f.path, line, kCheckObligationAnnotation,
          "PSOODB_REPLIES on '" + dt.name +
              "', which takes no sim::Promise parameter",
          false, "", ""});
    }
  }
}

}  // namespace

bool IsKnownResourceClass(const std::string& s) {
  return s == "lock" || s == "pin" || s == "copy" || s == "batch";
}

ObligationIndex BuildObligationIndex(
    const std::vector<LexedFile>& files,
    const std::vector<FrameIndex>& frames, const SymbolIndex& sym,
    const CallGraph& cg) {
  ObligationIndex oi;
  for (const auto& [name, sig] : sym.obligations) {
    ObligationIndex::Entry e;
    e.acquires = sig.acquires;
    e.releases = sig.releases;
    e.replies = sig.replies;
    e.stems = sig.stems;
    oi.entries[name] = std::move(e);
  }

  // Scope resolution: an annotated name is global only when every in-tree
  // definition of it lives in a declaring stem.
  std::map<std::string, std::set<std::string>> def_stems;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string stem = FileStem(files[i].path);
    for (const Frame& fr : frames[i].frames) {
      if (!fr.is_lambda && !fr.name.empty()) def_stems[fr.name].insert(stem);
    }
  }
  for (auto& [name, e] : oi.entries) {
    e.global = true;
    auto it = def_stems.find(name);
    if (it == def_stems.end()) continue;
    for (const std::string& s : it->second) {
      if (e.stems.count(s) == 0) {
        e.global = false;
        break;
      }
    }
  }

  // Release propagation over the call graph: a unique, non-coroutine,
  // unannotated helper that calls a global release — and no acquire —
  // discharges the same obligation at its own call sites. Acquires never
  // propagate: an unannotated acquirer is reported at its definition
  // instead (lock-leak rule (a)).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, fn] : cg.fns) {
      if (fn.defs != 1 || fn.coroutine_def) continue;
      if (sym.obligations.count(name) != 0) continue;
      bool calls_acquire = false;
      std::set<std::string> derived;
      for (const std::string& callee : fn.callees) {
        auto it = oi.entries.find(callee);
        if (it == oi.entries.end() || !it->second.global) continue;
        if (!it->second.acquires.empty()) {
          calls_acquire = true;
          break;
        }
        derived.insert(it->second.releases.begin(),
                       it->second.releases.end());
      }
      if (calls_acquire || derived.empty()) continue;
      ObligationIndex::Entry& e = oi.entries[name];
      e.global = true;
      const std::size_t before = e.releases.size();
      e.releases.insert(derived.begin(), derived.end());
      if (e.releases.size() != before) changed = true;
    }
  }
  return oi;
}

std::vector<Finding> RunObligationChecks(const LexedFile& f,
                                         const FrameIndex& fx,
                                         const SymbolIndex& sym,
                                         const ObligationIndex& oi) {
  std::vector<Finding> out;
  CheckAnnotationSites(f, sym, &out);

  if (InSimScope(f.path)) {
    const std::string stem = FileStem(f.path);
    for (std::size_t fi = 0; fi < fx.frames.size(); ++fi) {
      const Frame& fr = fx.frames[fi];
      if (fr.is_lambda || fr.name.empty() || fr.body_open < 0 ||
          fr.body_close < 0) {
        continue;
      }
      CheckFrameObligations(f, fx, fi, stem, oi, &out);
      if (!IsHandlerName(fr.name)) continue;
      const PromiseParam pp = FindPromiseParam(f.tokens, fr);
      if (!pp.present) continue;
      CheckFrameReply(f, fx, fi, pp, &out);
      if (pp.named) {
        auto it = sym.obligations.find(fr.name);
        if (it == sym.obligations.end() || !it->second.replies) {
          out.push_back(Finding{
              f.path, fr.line, kCheckObligationAnnotation,
              "handler '" + fr.name +
                  "' takes a reply promise by value but no declaration of it "
                  "carries PSOODB_REPLIES",
              false, "", ""});
        }
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  });
  return out;
}

}  // namespace psoodb::analyzer
