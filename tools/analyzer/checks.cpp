#include "analyzer/checks.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>

namespace psoodb::analyzer {

namespace {

using Tokens = std::vector<Token>;

struct Ctx {
  const LexedFile& f;
  const FrameIndex& fx;
  const SymbolIndex& sym;
  std::vector<Finding>* out;

  void Report(int line, const char* check, std::string message) const {
    out->push_back(Finding{f.path, line, check, std::move(message), false, "", ""});
  }
};

// ---------------------------------------------------------------------------
// det-hazard
// ---------------------------------------------------------------------------

void CheckDetHazard(const Ctx& c) {
  const Tokens& t = c.f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].IsIdent()) continue;
    const std::string& s = t[i].text;
    const bool member_access =
        i > 0 && (t[i - 1].Is(".") || t[i - 1].Is("->"));
    auto next_is = [&](std::size_t off, const char* w) {
      return i + off < t.size() && t[i + off].Is(w);
    };

    if (s == "system_clock" || s == "steady_clock" ||
        s == "high_resolution_clock") {
      c.Report(t[i].line, kCheckDetHazard,
               "wall-clock source 'std::chrono::" + s +
                   "' breaks run reproducibility; use the simulated clock "
                   "(sim::Simulation::now())");
    } else if (s == "gettimeofday" || s == "clock_gettime") {
      c.Report(t[i].line, kCheckDetHazard,
               "wall-clock call '" + s + "' breaks run reproducibility");
    } else if (s == "getpid" && !member_access) {
      c.Report(t[i].line, kCheckDetHazard,
               "'getpid()' varies per run; derive ids from config/seed");
    } else if (s == "random_device") {
      c.Report(t[i].line, kCheckDetHazard,
               "'std::random_device' is nondeterministically seeded; seed "
               "an engine from the workload seed parameter");
    } else if ((s == "rand" || s == "srand") && !member_access &&
               next_is(1, "(")) {
      c.Report(t[i].line, kCheckDetHazard,
               "global C RNG '" + s +
                   "()' is hidden shared state; use a seeded engine");
    } else if (s == "time" && !member_access && next_is(1, "(") &&
               i + 3 < t.size() &&
               (t[i + 2].Is("NULL") || t[i + 2].Is("nullptr") ||
                t[i + 2].Is("0")) &&
               t[i + 3].Is(")")) {
      c.Report(t[i].line, kCheckDetHazard,
               "'time(...)' reads the wall clock; use the simulated clock");
    } else if (s == "clock" && !member_access && next_is(1, "(") &&
               next_is(2, ")")) {
      c.Report(t[i].line, kCheckDetHazard,
               "'clock()' reads CPU time; use the simulated clock");
    } else if (IsUnorderedTypeName(s) && next_is(1, "<")) {
      // Pointer-keyed unordered container: key hashes on the address, so
      // any iteration order depends on the allocator.
      int depth = 1;
      for (std::size_t j = i + 2; j < t.size() && depth > 0; ++j) {
        if (t[j].Is("<")) ++depth;
        if (t[j].Is(">")) --depth;
        if (t[j].Is(">>")) depth -= 2;
        if (t[j].Is(";") || t[j].Is("{")) break;
        if (depth == 1 && t[j].Is(",")) break;  // first template arg done
        if (depth >= 1 && t[j].Is("*")) {
          c.Report(t[i].line, kCheckDetHazard,
                   "pointer-keyed '" + s +
                       "': hash order depends on allocation addresses");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

struct LocalUnordered {
  /// name -> mapped-type-also-unordered
  std::map<std::string, bool> containers;
  /// iterator name -> (container name, container mapped-unordered)
  std::map<std::string, std::pair<std::string, bool>> iterators;
  /// Names declared in THIS frame (params or locals) with a visibly
  /// non-unordered type; they hide any same-named unordered variable the
  /// global, name-based index picked up from another scope.
  std::set<std::string> shadowed;
};

bool ResolveUnordered(const Ctx& c, const LocalUnordered& lu,
                      const std::string& name, bool* mapped) {
  auto it = lu.containers.find(name);
  if (it != lu.containers.end()) {
    if (mapped != nullptr) *mapped = it->second;
    return true;
  }
  if (lu.shadowed.count(name) != 0) return false;
  return c.sym.IsUnorderedVar(name, mapped);
}

bool MentionsUnordered(const Ctx& c, const Tokens& t, int b, int e) {
  for (int j = b; j < e; ++j) {
    if (t[j].IsIdent() && (IsUnorderedTypeName(t[j].text) ||
                           c.sym.unordered_aliases.count(t[j].text) != 0)) {
      return true;
    }
  }
  return false;
}

/// Fills lu->shadowed from the frame's parameter list and from local
/// declarations whose declaring statement names no unordered type.
void CollectShadowedNames(const Ctx& c, const Frame& fr, LocalUnordered* lu) {
  const Tokens& t = c.f.tokens;
  if (fr.params_open >= 0 && fr.params_close > fr.params_open &&
      !MentionsUnordered(c, t, fr.params_open + 1, fr.params_close)) {
    for (const Param& p : fr.params) lu->shadowed.insert(p.name);
  }
  for (int i = fr.body_open + 1; i < fr.body_close; ++i) {
    if (!t[i].IsIdent() || i + 1 >= fr.body_close) continue;
    if (!(t[i + 1].Is(";") || t[i + 1].Is("=") || t[i + 1].Is("{") ||
          t[i + 1].Is("("))) {
      continue;
    }
    // A declaration's name is preceded by a type tail (ident, `>`, `*`,
    // `&`); plain assignments/calls are preceded by punctuation.
    if (i - 1 <= fr.body_open) continue;
    const Token& prev = t[i - 1];
    const bool typeish = (prev.IsIdent() && !prev.Is("return") &&
                          !prev.Is("co_return") && !prev.Is("co_await")) ||
                         prev.Is(">") || prev.Is(">>") || prev.Is("*") ||
                         prev.Is("&");
    if (!typeish) continue;
    if (prev.IsIdent() && i - 2 > fr.body_open &&
        (t[i - 2].Is(".") || t[i - 2].Is("->"))) {
      continue;  // member access, not a type
    }
    // Walk back to the statement boundary (angle-bracket aware so commas
    // inside template args don't cut the type off).
    int j = i - 1;
    int angle = 0;
    int steps = 0;
    bool initializer = false;  // `p = &name;`: a use, not a declaration
    for (; j > fr.body_open && steps < 32; --j, ++steps) {
      if (t[j].Is(">")) ++angle;
      if (t[j].Is(">>")) angle += 2;
      if (t[j].Is("<")) --angle;
      if (angle <= 0 && t[j].Is("=")) initializer = true;
      if (angle <= 0 && (t[j].Is(";") || t[j].Is("{") || t[j].Is("}") ||
                         t[j].Is("(") || t[j].Is(","))) {
        break;
      }
    }
    if (initializer) continue;
    if (!MentionsUnordered(c, t, j + 1, i)) lu->shadowed.insert(t[i].text);
  }
}

/// True if tokens [b, e) form a member-access chain that ends in a member
/// name: `a.b`, `a->b`, `a[i].b`, `this->a.b`, ... (at least one `.` or
/// `->`; subscripts anywhere before the last name).
bool IsMemberChain(const Tokens& t, std::size_t b, std::size_t e) {
  if (e - b < 3 || !t[e - 1].IsIdent() ||
      !(t[e - 2].Is(".") || t[e - 2].Is("->")) || !t[b].IsIdent()) {
    return false;
  }
  for (std::size_t j = b + 1; j < e; ++j) {
    if (t[j].Is("[")) {
      int depth = 0;
      for (; j < e; ++j) {
        if (t[j].Is("[")) ++depth;
        if (t[j].Is("]") && --depth == 0) break;
      }
      if (j == e) return false;
      continue;
    }
    if (!(t[j].IsIdent() || t[j].Is(".") || t[j].Is("->"))) return false;
  }
  return true;
}

/// Resolves an expression that names a container: `C`, a member chain
/// ending in `C` (`obj.C`, `slab[i].C`), or the same behind `&` / `*`.
/// True if it is unordered; `*mapped` reports a mapped type that is itself
/// unordered.
bool ResolveContainerExpr(const Ctx& c, const LocalUnordered& lu,
                          const Tokens& t, std::size_t b, std::size_t e,
                          bool* mapped) {
  if (e > b + 1 && (t[b].Is("&") || t[b].Is("*"))) ++b;
  if (e == b + 1 && t[b].IsIdent()) {
    return ResolveUnordered(c, lu, t[b].text, mapped);
  }
  // A member is looked up among class- and namespace-scope declarations
  // only: a same-named local or parameter elsewhere is not it.
  return IsMemberChain(t, b, e) &&
         c.sym.IsUnorderedMember(t[e - 1].text, mapped);
}

/// Examines the range expression of a range-for (tokens [b, e)). Returns a
/// non-empty container description if the iteration order is unordered.
std::string ClassifyRangeExpr(const Ctx& c, const LocalUnordered& lu,
                              const Tokens& t, std::size_t b, std::size_t e) {
  const std::size_t n = e - b;
  if (n == 0) return "";
  bool mapped = false;
  // `container`, `*ptr_to_container`, `obj.container`, `slab[i].container`
  if (ResolveContainerExpr(c, lu, t, b, e, &mapped)) return t[e - 1].text;
  // `it->second` / `it.second` where `it` iterates a map whose mapped type
  // is itself unordered.
  if (n == 3 && t[b].IsIdent() && (t[b + 1].Is("->") || t[b + 1].Is(".")) &&
      t[b + 2].Is("second")) {
    auto it = lu.iterators.find(t[b].text);
    if (it != lu.iterators.end() && it->second.second) {
      return it->second.first + "[...] (inner map)";
    }
  }
  // `obj.accessor()` / `obj->accessor()` / `accessor()` returning a
  // reference to an unordered container.
  if (n >= 3 && t[e - 1].Is(")") && t[e - 2].Is("(") && t[e - 3].IsIdent() &&
      c.sym.unordered_accessors.count(t[e - 3].text) != 0) {
    return t[e - 3].text + "()";
  }
  return "";
}

void CheckUnorderedIterFrame(const Ctx& c, int fi) {
  const Tokens& t = c.f.tokens;
  const Frame& fr = c.fx.frames[fi];
  LocalUnordered lu;
  CollectShadowedNames(c, fr, &lu);

  for (int i = fr.body_open + 1; i < fr.body_close; ++i) {
    if (c.fx.owner[i] != fi) continue;

    // Local propagation: `A = B`, `A = std::move(B)`, `A = B.find(...)`,
    // `A = B.begin()`, `A = it->second`.
    if (t[i].IsIdent() && i + 1 < fr.body_close && t[i + 1].Is("=")) {
      const std::string& lhs = t[i].text;
      std::size_t r = static_cast<std::size_t>(i) + 2;
      // Collect RHS token indices until `;` at depth 0.
      std::vector<std::size_t> rhs;
      int depth = 0;
      for (std::size_t j = r; j < t.size() &&
                              static_cast<int>(j) < fr.body_close;
           ++j) {
        if (t[j].Is("(") || t[j].Is("[") || t[j].Is("{")) {
          ++depth;
        } else if (t[j].Is(")") || t[j].Is("]") || t[j].Is("}")) {
          if (depth == 0) break;  // closer of an enclosing bracket
          --depth;
        } else if (depth == 0 && (t[j].Is(";") || t[j].Is(","))) {
          break;
        }
        rhs.push_back(j);
      }
      bool mapped = false;
      if (!rhs.empty() && ResolveContainerExpr(c, lu, t, rhs.front(),
                                               rhs.back() + 1, &mapped)) {
        // `A = B`, `A = &B`, `A = obj.B`, `A = slab[i].B`: A aliases (or
        // points at) the container.
        lu.containers[lhs] = mapped;
      } else if (rhs.size() == 6 && t[rhs[0]].Is("std") &&
                 t[rhs[1]].Is("::") && t[rhs[2]].Is("move") &&
                 t[rhs[3]].Is("(") && t[rhs[4]].IsIdent() &&
                 ResolveUnordered(c, lu, t[rhs[4]].text, &mapped)) {
        lu.containers[lhs] = mapped;
      } else if (rhs.size() >= 4 && t[rhs[0]].IsIdent() &&
                 (t[rhs[1]].Is(".") || t[rhs[1]].Is("->")) &&
                 (t[rhs[2]].Is("find") || t[rhs[2]].Is("begin") ||
                  t[rhs[2]].Is("cbegin")) &&
                 t[rhs[3]].Is("(") &&
                 ResolveUnordered(c, lu, t[rhs[0]].text, &mapped)) {
        lu.iterators[lhs] = {t[rhs[0]].text, mapped};
      } else if (rhs.size() == 3 && t[rhs[0]].IsIdent() &&
                 (t[rhs[1]].Is("->") || t[rhs[1]].Is(".")) &&
                 t[rhs[2]].Is("second")) {
        auto it = lu.iterators.find(t[rhs[0]].text);
        if (it != lu.iterators.end() && it->second.second) {
          lu.containers[lhs] = false;
        }
      }
    }

    if (!t[i].Is("for") || !t[i].IsIdent()) continue;
    if (i + 1 >= fr.body_close || !t[i + 1].Is("(")) continue;
    const int open = i + 1;
    const int close = c.fx.match[open];
    if (close < 0) continue;

    // Find a range-for `:` at paren depth 1 (i.e. directly in the header).
    int colon = -1;
    int depth = 0;
    for (int j = open; j <= close; ++j) {
      if (t[j].Is("(") || t[j].Is("[") || t[j].Is("{")) ++depth;
      if (t[j].Is(")") || t[j].Is("]") || t[j].Is("}")) --depth;
      if (depth == 1 && t[j].Is(":")) {
        colon = j;
        break;
      }
      if (depth == 1 && t[j].Is(";")) break;  // classic for
    }

    if (colon >= 0) {
      const std::string what = ClassifyRangeExpr(
          c, lu, t, static_cast<std::size_t>(colon) + 1,
          static_cast<std::size_t>(close));
      if (!what.empty()) {
        c.Report(t[i].line, kCheckUnorderedIter,
                 "iteration over unordered container '" + what +
                     "' yields nondeterministic order across stdlib "
                     "implementations");
      }
      // Structured-binding propagation: `for (auto& [k, v] : C)` where C's
      // mapped type is unordered makes `v` an unordered container.
      bool mapped = false;
      if (colon + 1 < close && t[colon + 1].IsIdent() &&
          ResolveUnordered(c, lu, t[colon + 1].text, &mapped) && mapped) {
        for (int j = open + 1; j < colon; ++j) {
          if (t[j].Is("]") && j >= 1 && t[j - 1].IsIdent() &&
              t[j - 2].Is(",")) {
            lu.containers[t[j - 1].text] = false;
          }
        }
      }
    } else {
      // Classic for: `for (auto it = C.begin(); ...)`.
      for (int j = open + 1; j + 3 < close; ++j) {
        if (t[j].Is("=") && t[j + 1].IsIdent() &&
            (t[j + 2].Is(".") || t[j + 2].Is("->")) &&
            (t[j + 3].Is("begin") || t[j + 3].Is("cbegin"))) {
          bool mapped = false;
          if (ResolveUnordered(c, lu, t[j + 1].text, &mapped)) {
            c.Report(t[i].line, kCheckUnorderedIter,
                     "iterator loop over unordered container '" +
                         t[j + 1].text +
                         "' yields nondeterministic order across stdlib "
                         "implementations");
          }
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// suspend-ref
// ---------------------------------------------------------------------------

const std::set<std::string>& ElementYieldMethods() {
  static const std::set<std::string> m = {"find",  "at",   "begin", "cbegin",
                                          "front", "back"};
  return m;
}
const std::set<std::string>& PointerYieldMethods() {
  static const std::set<std::string> m = {"Get", "Peek", "Insert", "data",
                                          "c_str"};
  return m;
}
const std::set<std::string>& IterPtrYieldMethods() {
  static const std::set<std::string> m = {"find", "begin", "cbegin", "Get",
                                          "Peek", "Insert", "data", "c_str"};
  return m;
}

struct HazardVar {
  std::string name;
  int birth = -1;      ///< token index of the binding `=`
  int birth_end = -1;  ///< token index of the statement-ending `;`
  int kill = -1;       ///< token index of a later reassignment, or -1
  std::string origin;  ///< short description for the message
};

void CheckSuspendRefFrame(const Ctx& c, int fi) {
  const Tokens& t = c.f.tokens;
  const Frame& fr = c.fx.frames[fi];
  if (!fr.is_coroutine) return;

  // --- suspension points: every owned co_await, plus a virtual suspension
  // at the head of any loop whose body contains an owned co_await (the
  // second iteration runs after a suspension). A co_await takes effect at
  // the END of its statement: operands (e.g. `co_await Use(*p)`) are
  // evaluated before the suspension, so same-statement reads are safe.
  std::vector<int> awaits;
  for (int i = fr.body_open + 1; i < fr.body_close; ++i) {
    if (c.fx.owner[i] == fi && t[i].Is("co_await")) awaits.push_back(i);
  }
  if (awaits.empty()) return;
  std::vector<int> suspends;
  for (int a : awaits) {
    int depth = 0;
    int e = a + 1;
    for (; e < fr.body_close; ++e) {
      if (t[e].Is("(") || t[e].Is("[") || t[e].Is("{")) {
        ++depth;
      } else if (t[e].Is(")") || t[e].Is("]") || t[e].Is("}")) {
        if (depth == 0) break;  // closer of an enclosing bracket
        --depth;
      } else if (depth == 0 && t[e].Is(";")) {
        break;
      }
    }
    suspends.push_back(e);
  }
  for (int i = fr.body_open + 1; i < fr.body_close; ++i) {
    if (c.fx.owner[i] != fi) continue;
    if (!(t[i].Is("for") || t[i].Is("while") || t[i].Is("do"))) continue;
    int body_start = -1, body_end = -1;
    if (t[i].Is("do")) {
      if (i + 1 < fr.body_close && t[i + 1].Is("{")) {
        body_start = i + 1;
        body_end = c.fx.match[i + 1];
      }
    } else if (i + 1 < fr.body_close && t[i + 1].Is("(")) {
      const int hclose = c.fx.match[i + 1];
      if (hclose > 0 && hclose + 1 < fr.body_close) {
        body_start = hclose + 1;
        if (t[body_start].Is("{")) {
          body_end = c.fx.match[body_start];
        } else {
          body_end = body_start;
          while (body_end < fr.body_close && !t[body_end].Is(";")) ++body_end;
        }
      }
    }
    if (body_start < 0 || body_end < 0) continue;
    for (int a : awaits) {
      if (a > body_start && a < body_end) {
        suspends.push_back(body_start);
        break;
      }
    }
  }
  std::sort(suspends.begin(), suspends.end());

  // --- hazard variable births and kills (linear token order).
  std::vector<HazardVar> vars;
  auto find_live = [&](const std::string& name) -> HazardVar* {
    for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
      if (it->name == name && it->kill < 0) return &*it;
    }
    return nullptr;
  };

  for (int i = fr.body_open + 1; i < fr.body_close; ++i) {
    if (c.fx.owner[i] != fi) continue;
    if (!t[i].Is("=") || i < 1 || !t[i - 1].IsIdent()) continue;
    const std::string& name = t[i - 1].text;
    if (i >= 2 && (t[i - 2].Is(".") || t[i - 2].Is("->"))) continue;

    const bool amp_decl = i >= 2 && (t[i - 2].Is("&") || t[i - 2].Is("&&"));
    const bool star_decl = i >= 2 && t[i - 2].Is("*");

    // RHS span up to the statement-ending `;`.
    int semi = i + 1;
    int depth = 0;
    for (; semi < fr.body_close; ++semi) {
      if (t[semi].Is("(") || t[semi].Is("[") || t[semi].Is("{")) ++depth;
      if (t[semi].Is(")") || t[semi].Is("]") || t[semi].Is("}")) --depth;
      if (depth < 0) break;
      if (depth == 0 && t[semi].Is(";")) break;
    }

    // Reference-returning sources (at/front/subscript/...) only create a
    // hazard for `&` declarators: assigning them to a pointer declarator
    // copies a pointer VALUE (mapped_type is itself a pointer), which stays
    // valid across rehash. Pointer-returning sources (Get/Peek/data/...)
    // and address-of hazard both declarator kinds.
    bool ref_yield = false;
    bool ptr_yield = false;
    std::string origin;
    for (int j = i + 1; j < semi; ++j) {
      if ((t[j].Is(".") || t[j].Is("->")) && j + 2 < semi &&
          t[j + 1].IsIdent() && t[j + 2].Is("(")) {
        if (PointerYieldMethods().count(t[j + 1].text) != 0) {
          ptr_yield = true;
          if (origin.empty()) origin = "." + t[j + 1].text + "()";
        } else if (ElementYieldMethods().count(t[j + 1].text) != 0) {
          ref_yield = true;
          if (origin.empty()) origin = "." + t[j + 1].text + "()";
        }
      }
      if (t[j].Is("[") && j > i + 1 &&
          (t[j - 1].IsIdent() || t[j - 1].Is(")") || t[j - 1].Is("]"))) {
        ref_yield = true;
        if (origin.empty()) origin = "operator[]";
      }
      if (t[j].IsIdent() && j + 1 < semi && t[j + 1].Is("(") &&
          c.sym.unordered_accessors.count(t[j].text) != 0) {
        ref_yield = true;
        if (origin.empty()) origin = t[j].text + "()";
      }
      if (t[j].IsIdent() && find_live(t[j].text) != nullptr) {
        ptr_yield = true;
        if (origin.empty()) origin = "'" + t[j].text + "'";
      }
    }
    if (i + 1 < semi && t[i + 1].Is("&")) {
      ptr_yield = true;
      origin = "address-of";
    }

    // The variable holds an iterator/pointer only when an iterator- or
    // pointer-yielding member call terminates the RHS (not when its result
    // is dereferenced, copied out of, or chained into a value).
    bool iterptr_yield = false;
    if (semi - 1 > i + 1 && t[semi - 1].Is(")") && !t[i + 1].Is("*")) {
      const int mo = c.fx.match[semi - 1];
      if (mo >= 2 && t[mo - 1].IsIdent() &&
          (t[mo - 2].Is(".") || t[mo - 2].Is("->")) &&
          IterPtrYieldMethods().count(t[mo - 1].text) != 0) {
        iterptr_yield = true;
        if (origin.empty()) origin = "." + t[mo - 1].text + "()";
      }
    }

    HazardVar* live = find_live(name);
    if (live != nullptr) live->kill = i;  // reassignment kills the old bind

    const bool hazardous = (amp_decl && (ref_yield || ptr_yield)) ||
                           (star_decl && ptr_yield) || iterptr_yield;
    if (hazardous) {
      vars.push_back(HazardVar{name, i, semi, -1, origin});
    }
  }

  // --- uses after a suspension within the live range.
  for (const HazardVar& v : vars) {
    const int limit = v.kill > 0 ? v.kill - 1 : fr.body_close;
    int first_suspend = -1;
    for (int s : suspends) {
      if (s > v.birth_end && s < limit) {
        first_suspend = s;
        break;
      }
    }
    if (first_suspend < 0) continue;
    for (int u = first_suspend + 1; u < limit; ++u) {
      if (c.fx.owner[u] != fi) continue;
      if (!t[u].IsIdent() || t[u].text != v.name) continue;
      if (u > 0 && (t[u - 1].Is(".") || t[u - 1].Is("->") || t[u - 1].Is("::")))
        continue;  // member of another object with the same name
      if (u + 1 < fr.body_close && t[u + 1].Is("=")) continue;  // overwrite
      c.Report(t[u].line, kCheckSuspendRef,
               "'" + v.name + "' (bound via " +
                   (v.origin.empty() ? std::string("element access")
                                     : v.origin) +
                   " at line " + std::to_string(t[v.birth].line) +
                   ") is used after a co_await suspension; the underlying "
                   "container/frame may have been mutated while suspended");
      break;  // one report per binding
    }
  }

  // --- by-reference parameters in detached (Spawn'ed) coroutines.
  if (!fr.is_lambda && c.sym.spawned_functions.count(fr.name) != 0) {
    for (const Param& p : fr.params) {
      if (!p.by_ref_or_ptr) continue;
      c.Report(fr.line, kCheckSuspendRef,
               "by-reference parameter '" + p.name +
                   "' in detached coroutine '" + fr.name +
                   "' may dangle once the spawner's scope unwinds; pass by "
                   "value or ensure the referent outlives the simulation");
    }
  }
}

// ---------------------------------------------------------------------------
// dropped-task
// ---------------------------------------------------------------------------

bool StatementStartSkipped(const std::string& s) {
  static const std::set<std::string> kSkip = {
      "if",      "for",     "while",    "switch",    "do",
      "else",    "case",    "default",  "using",     "typedef",
      "goto",    "break",   "continue", "static_assert", "template",
      "public",  "private", "protected", "friend",   "struct",
      "class",   "enum",    "namespace", "return",   "co_return",
      "throw",   "delete",  "new"};
  return kSkip.count(s) != 0;
}

bool TokenConsumesResult(const Token& tk) {
  return tk.Is("=") || tk.Is("+=") || tk.Is("-=") || tk.Is("*=") ||
         tk.Is("/=") || tk.Is("%=") || tk.Is("&=") || tk.Is("|=") ||
         tk.Is("^=") || tk.Is("<<=") || tk.Is(">>=") || tk.Is("co_await") ||
         tk.Is("co_yield") || tk.Is("return") || tk.Is("co_return") ||
         tk.Is("throw");
}

void CheckDroppedTaskFrame(const Ctx& c, int fi) {
  const Tokens& t = c.f.tokens;
  const Frame& fr = c.fx.frames[fi];

  std::vector<int> stmt;  // token indices of the current statement
  auto flush = [&]() {
    std::vector<int> s;
    s.swap(stmt);
    if (s.empty()) return;
    if (t[s.front()].IsIdent() && StatementStartSkipped(t[s.front()].text))
      return;
    for (int idx : s) {
      if (TokenConsumesResult(t[idx])) return;
    }
    const int last = s.back();
    if (!t[last].Is(")")) return;
    const int open = c.fx.match[last];
    if (open <= 0 || !t[open - 1].IsIdent()) return;
    const std::string& callee = t[open - 1].text;
    if (!c.sym.IsTaskFunction(callee)) return;
    if (open >= 2 && t[open - 2].IsIdent()) return;  // `Task foo()`-style decl
    c.Report(t[s.front()].line, kCheckDroppedTask,
             "result of task-returning call '" + callee +
                 "(...)' is neither co_awaited nor stored — the lazy "
                 "coroutine never runs (or the wait is silently skipped)");
  };

  int depth = 0;
  for (int i = fr.body_open + 1; i < fr.body_close; ++i) {
    if (c.fx.owner[i] != fi) continue;
    const Token& tk = t[i];
    if (tk.Is("(") || tk.Is("[")) ++depth;
    if (tk.Is(")") || tk.Is("]")) {
      if (depth > 0) {
        --depth;
        stmt.push_back(i);
        continue;
      }
    }
    if (depth == 0 && (tk.Is(";") || tk.Is("{") || tk.Is("}"))) {
      flush();
      continue;
    }
    stmt.push_back(i);
  }
  flush();
}

// ---------------------------------------------------------------------------
// dcheck-side-effect
// ---------------------------------------------------------------------------

void CheckDcheckSideEffect(const Ctx& c) {
  const Tokens& t = c.f.tokens;
  static const std::set<std::string> kMutators = {
      "insert",    "erase",   "push_back", "emplace", "emplace_back",
      "pop_back",  "pop_front", "clear",   "resize",  "Set",
      "Done",      "Add",     "NotifyOne", "NotifyAll", "Cancel",
      "Spawn",     "Insert",  "Erase",     "Remove"};
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].Is("PSOODB_DCHECK") || !t[i + 1].Is("(")) continue;
    const int close = c.fx.match[i + 1];
    if (close < 0) continue;
    for (int j = static_cast<int>(i) + 2; j < close; ++j) {
      const Token& tk = t[j];
      const bool mutating_op =
          tk.Is("++") || tk.Is("--") || tk.Is("=") || tk.Is("+=") ||
          tk.Is("-=") || tk.Is("*=") || tk.Is("/=") || tk.Is("%=") ||
          tk.Is("&=") || tk.Is("|=") || tk.Is("^=") || tk.Is("<<=") ||
          tk.Is(">>=");
      const bool mutating_call =
          (tk.Is(".") || tk.Is("->")) && j + 2 < close &&
          t[j + 1].IsIdent() && kMutators.count(t[j + 1].text) != 0 &&
          t[j + 2].Is("(");
      if (mutating_op || mutating_call) {
        c.Report(t[i].line, kCheckDcheckSideEffect,
                 "side effect inside PSOODB_DCHECK — the whole expression "
                 "compiles away under NDEBUG, so behavior would change "
                 "between debug and release builds");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// enum-switch
// ---------------------------------------------------------------------------

void CheckEnumSwitch(const Ctx& c) {
  const Tokens& t = c.f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].Is("switch") || !t[i + 1].Is("(")) continue;
    const int hclose = c.fx.match[i + 1];
    if (hclose < 0 || hclose + 1 >= static_cast<int>(t.size()) ||
        !t[hclose + 1].Is("{"))
      continue;
    const int body_open = hclose + 1;
    const int body_close = c.fx.match[body_open];
    if (body_close < 0) continue;

    std::map<std::string, std::set<std::string>> covered;
    bool has_default = false;
    bool checked_default = false;
    int depth = 0;
    for (int j = body_open + 1; j < body_close; ++j) {
      if (t[j].Is("{")) ++depth;
      if (t[j].Is("}")) --depth;
      if (depth != 0) continue;
      if (t[j].Is("case")) {
        // `case [quals::]Enum::Value:` — record the last `A::B` pair.
        int k = j + 1;
        std::string en, val;
        while (k + 1 < body_close && !t[k].Is(":")) {
          if (t[k].IsIdent() && t[k + 1].Is("::") && k + 2 < body_close &&
              t[k + 2].IsIdent()) {
            en = t[k].text;
            val = t[k + 2].text;
          }
          ++k;
        }
        if (!en.empty()) covered[en].insert(val);
      } else if (t[j].Is("default") && j + 1 < body_close &&
                 t[j + 1].Is(":")) {
        has_default = true;
        // "Checked" default: its body does something beyond `break;`.
        for (int k = j + 2; k < body_close; ++k) {
          if (depth == 0 && t[k].Is("case")) break;
          if (t[k].Is("break") || t[k].Is(";")) continue;
          if (t[k].Is("{") || t[k].Is("}")) continue;
          checked_default = true;
          break;
        }
      }
    }
    if (has_default && checked_default) continue;

    for (const auto& [en, vals] : covered) {
      auto eit = c.sym.enums.find(en);
      if (eit == c.sym.enums.end()) continue;
      std::vector<std::string> missing;
      for (const std::string& v : eit->second) {
        if (vals.count(v) == 0) missing.push_back(v);
      }
      if (missing.empty()) continue;
      std::string list;
      for (std::size_t k = 0; k < missing.size() && k < 4; ++k) {
        if (!list.empty()) list += ", ";
        list += missing[k];
      }
      if (missing.size() > 4) list += ", ...";
      c.Report(t[i].line, kCheckEnumSwitch,
               "switch over enum '" + en + "' does not handle: " + list +
                   (has_default
                        ? " (default is a bare break — make it a checked "
                          "default or add the cases)"
                        : " (no default — add the cases or a checked "
                          "default)"));
    }
  }
}

// ---------------------------------------------------------------------------
// await-in-condition
// ---------------------------------------------------------------------------

void CheckAwaitInCondition(const Ctx& c) {
  const Tokens& t = c.f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].Is("if") || t[i].Is("while") || t[i].Is("switch")) ||
        !t[i + 1].Is("(")) {
      continue;
    }
    const int close = c.fx.match[i + 1];
    if (close < 0) continue;
    // The condition starts after the init-statement's top-level ';', if any.
    std::size_t cond = i + 2;
    int depth = 0;
    for (int j = static_cast<int>(i) + 2; j < close; ++j) {
      if (t[j].Is("(") || t[j].Is("[") || t[j].Is("{")) ++depth;
      if (t[j].Is(")") || t[j].Is("]") || t[j].Is("}")) --depth;
      if (depth == 0 && t[j].Is(";")) cond = static_cast<std::size_t>(j) + 1;
    }
    for (int j = static_cast<int>(cond); j < close; ++j) {
      if (!t[j].Is("co_await")) continue;
      c.Report(t[j].line, kCheckAwaitInCondition,
               "co_await in a " + t[i].text +
                   " condition — GCC 12 miscompiles a condition that awaits "
                   "a temporary (the coroutine's body never runs); bind the "
                   "result in the init-statement: `if (const bool aborted = "
                   "co_await ...; aborted)`");
      break;
    }
  }
}

}  // namespace

std::vector<std::string> AllCheckNames() {
  return {kCheckSuspendRef,
          kCheckDroppedTask,
          kCheckUnorderedIter,
          kCheckDetHazard,
          kCheckDcheckSideEffect,
          kCheckEnumSwitch,
          kCheckAwaitInCondition,
          kCheckShardEscape,
          kCheckGuardedBy,
          kCheckBlockingInCoroutine,
          kCheckUnannotatedSharedStatic,
          kCheckLockLeak,
          kCheckReplyObligation,
          kCheckObligationAnnotation,
          kCheckProtocolTransition,
          kCheckBadSuppression,
          kCheckStaleSuppression};
}

std::vector<Finding> RunChecks(const LexedFile& f, const FrameIndex& fx,
                               const SymbolIndex& sym) {
  std::vector<Finding> out;
  Ctx c{f, fx, sym, &out};
  CheckDetHazard(c);
  CheckDcheckSideEffect(c);
  CheckEnumSwitch(c);
  CheckAwaitInCondition(c);
  for (std::size_t fi = 0; fi < fx.frames.size(); ++fi) {
    CheckUnorderedIterFrame(c, static_cast<int>(fi));
    CheckSuspendRefFrame(c, static_cast<int>(fi));
    CheckDroppedTaskFrame(c, static_cast<int>(fi));
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  });
  return out;
}

}  // namespace psoodb::analyzer
