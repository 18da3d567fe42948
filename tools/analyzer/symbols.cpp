#include "analyzer/symbols.h"

#include <cstddef>

namespace psoodb::analyzer {

namespace {

using Tokens = std::vector<Token>;

/// Keywords that can directly precede a call and must not be mistaken for a
/// return type in a `Type name(` declaration pattern.
bool IsNonTypeKeyword(const std::string& s) {
  static const std::set<std::string> kws = {
      "return", "co_return", "co_await", "co_yield", "new",     "delete",
      "throw",  "case",      "goto",     "else",     "if",      "for",
      "while",  "switch",    "do",       "sizeof",   "typeid",  "operator",
      "using",  "not",       "and",      "or",       "typedef", "typename",
      "template"};
  return kws.count(s) != 0;
}

/// tokens[i] == "<": returns index just past the matching ">". Treats ">>"
/// as two closers. Returns i+1 on mismatch (never walks past end).
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
      return i + 1;  // ran off the declaration: not a template-arg list
    }
  }
  return i + 1;
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

/// Reads an optionally ::-qualified name starting at i; returns the index of
/// the LAST identifier, or npos if t[i] is not an identifier.
std::size_t QualifiedNameEnd(const Tokens& t, std::size_t i) {
  if (i >= t.size() || !t[i].IsIdent()) return std::string::npos;
  std::size_t last = i;
  while (last + 2 < t.size() && t[last + 1].Is("::") && t[last + 2].IsIdent()) {
    last += 2;
  }
  return last;
}

/// True if the angle-bracket span [open, close_past) mentions an unordered
/// container (directly or via a known alias) — i.e. the mapped/element type
/// of the enclosing container is itself unordered.
bool SpanMentionsUnordered(const Tokens& t, std::size_t open,
                           std::size_t close_past, const SymbolIndex& idx) {
  for (std::size_t j = open + 1; j + 1 < close_past; ++j) {
    if (!t[j].IsIdent()) continue;
    if (IsUnorderedTypeName(t[j].text)) return true;
    if (idx.unordered_aliases.count(t[j].text) != 0) return true;
  }
  return false;
}

void IndexEnum(const Tokens& t, std::size_t i, SymbolIndex& idx) {
  // t[i] == "enum"; require enum class/struct Name [: underlying] {
  std::size_t j = i + 1;
  if (j >= t.size() || !(t[j].Is("class") || t[j].Is("struct"))) return;
  ++j;
  if (j >= t.size() || !t[j].IsIdent()) return;
  const std::string name = t[j].text;
  ++j;
  if (j < t.size() && t[j].Is(":")) {  // underlying type
    ++j;
    while (j < t.size() && !t[j].Is("{") && !t[j].Is(";")) ++j;
  }
  if (j >= t.size() || !t[j].Is("{")) return;
  std::set<std::string>& values = idx.enums[name];
  bool expecting_name = true;
  int depth = 0;  // nesting inside enumerator initializers
  for (++j; j < t.size(); ++j) {
    if (t[j].Is("}") && depth == 0) break;
    if (t[j].Is("(") || t[j].Is("{") || t[j].Is("[")) ++depth;
    if (t[j].Is(")") || t[j].Is("}") || t[j].Is("]")) --depth;
    if (depth > 0) continue;
    if (t[j].Is(",")) {
      expecting_name = true;
    } else if (expecting_name && t[j].IsIdent()) {
      values.insert(t[j].text);
      expecting_name = false;
    }
  }
}

void IndexAlias(const Tokens& t, std::size_t i, SymbolIndex& idx) {
  // t[i] == "using"; require `using Name = ... ;`
  if (i + 2 >= t.size() || !t[i + 1].IsIdent() || !t[i + 2].Is("=")) return;
  const std::string name = t[i + 1].text;
  int unordered_mentions = 0;
  for (std::size_t j = i + 3; j < t.size() && !t[j].Is(";"); ++j) {
    if (t[j].IsIdent() && IsUnorderedTypeName(t[j].text)) ++unordered_mentions;
    if (t[j].IsIdent() && idx.unordered_aliases.count(t[j].text) != 0)
      unordered_mentions += 2;  // alias of an alias: outer + mapped unknown
  }
  if (unordered_mentions > 0) {
    idx.unordered_aliases[name] = unordered_mentions >= 2;
  }
}

std::string FileStem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

bool IsMutexTypeName(const std::string& s) {
  return s == "mutex" || s == "shared_mutex" || s == "recursive_mutex" ||
         s == "timed_mutex" || s == "recursive_timed_mutex";
}

bool IsCondvarTypeName(const std::string& s) {
  return s == "condition_variable" || s == "condition_variable_any";
}

/// Types that order their own accesses — a static of one of these needs no
/// PSOODB_SHARD_SHARED annotation.
bool IsSyncTypeName(const std::string& s) {
  return IsMutexTypeName(s) || IsCondvarTypeName(s) || s == "atomic" ||
         s == "atomic_flag" || s == "barrier" || s == "latch" ||
         s == "once_flag" || s == "counting_semaphore" ||
         s == "binary_semaphore";
}

/// Comma-separated identifiers inside the paren group opening at t[open]
/// (the last identifier of each ::-qualified chunk, `std` dropped).
std::set<std::string> ParenIdents(const Tokens& t, std::size_t open) {
  std::set<std::string> out;
  std::string last;
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].Is("(")) {
      ++depth;
      continue;
    }
    if (t[j].Is(")")) {
      if (--depth == 0) {
        if (!last.empty()) out.insert(last);
        break;
      }
      continue;
    }
    if (depth != 1) continue;
    if (t[j].Is(",")) {
      if (!last.empty()) out.insert(last);
      last.clear();
    } else if (t[j].IsIdent() && t[j].text != "std") {
      last = t[j].text;
    }
  }
  return out;
}

/// Name of the declarator an annotation at t[i] attaches to: the identifier
/// just before it, hopping back over an array extent `[...]`. Empty for the
/// macro's own `#define` line.
std::string AnnotatedName(const Tokens& t, std::size_t i) {
  if (i == 0) return "";
  std::size_t p = i - 1;
  if (t[p].Is("]")) {
    int depth = 0;
    while (p > 0) {
      if (t[p].Is("]")) ++depth;
      if (t[p].Is("[") && --depth == 0) {
        --p;
        break;
      }
      --p;
    }
  }
  if (!t[p].IsIdent() || t[p].text == "define") return "";
  return t[p].text;
}

/// Walks back from the obligation macro at t[i] to the function declarator it
/// annotates. Obligation macros may be chained after trailing specifiers
/// (`const`, `noexcept`, `override`, `final`) and after each other, so the
/// walk skips those until it reaches the parameter list's `)`, then matches
/// back to its `(`; the declared name is the identifier just before it.
/// Returns "" when the shape doesn't match (e.g. the macro's own #define).
std::string ObligationTarget(const Tokens& t, std::size_t i) {
  if (i == 0) return "";
  std::size_t p = i - 1;
  while (true) {
    if (t[p].IsIdent() &&
        (t[p].text == "override" || t[p].text == "final" ||
         t[p].text == "const" || t[p].text == "noexcept" ||
         IsAnnotationMacro(t[p].text))) {
      if (p == 0) return "";
      --p;
      continue;
    }
    if (!t[p].Is(")")) return "";
    // Match back to the opening "(" of this paren group.
    int depth = 0;
    std::size_t q = p;
    while (true) {
      if (t[q].Is(")")) {
        ++depth;
      } else if (t[q].Is("(") && --depth == 0) {
        break;
      }
      if (q == 0) return "";
      --q;
    }
    if (q == 0) return "";
    const Token& before = t[q - 1];
    if (before.IsIdent() &&
        (IsAnnotationMacro(before.text) || before.text == "noexcept")) {
      p = q - 1;  // argument group of a chained macro: keep walking back
      continue;
    }
    return before.IsIdent() ? before.text : "";
  }
}

/// Concurrency vocabulary sweep (part of pass A): annotation macros plus
/// mutex/condvar/future variables and mutable statics.
void IndexConcurrencyVocab(const LexedFile& f, SymbolIndex& idx) {
  const Tokens& t = f.tokens;
  const std::string stem = FileStem(f.path);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].IsIdent()) continue;
    const std::string& s = t[i].text;

    if (s == "PSOODB_GUARDED_BY" && i + 1 < t.size() && t[i + 1].Is("(")) {
      const std::string name = AnnotatedName(t, i);
      const std::set<std::string> mus = ParenIdents(t, i + 1);
      if (!name.empty() && !mus.empty()) {
        idx.guarded_fields[name] =
            SymbolIndex::GuardedField{*mus.begin(), stem};
      }
      continue;
    }
    if (s == "PSOODB_REQUIRES" && i + 1 < t.size() && t[i + 1].Is("(") &&
        i > 0 && t[i - 1].Is(")")) {
      // Walk back over the parameter list to the declared function's name.
      int depth = 0;
      std::size_t p = i - 1;
      bool found = false;
      while (true) {
        if (t[p].Is(")")) {
          ++depth;
        } else if (t[p].Is("(") && --depth == 0) {
          found = p > 0;
          break;
        }
        if (p == 0) break;
        --p;
      }
      if (found && t[p - 1].IsIdent()) {
        const std::set<std::string> mus = ParenIdents(t, i + 1);
        if (!mus.empty()) {
          idx.requires_fns[t[p - 1].text].insert(mus.begin(), mus.end());
        }
      }
      continue;
    }
    if (s == "PSOODB_ACQUIRES" || s == "PSOODB_RELEASES") {
      if (i + 1 < t.size() && t[i + 1].Is("(")) {
        const std::string fn = ObligationTarget(t, i);
        const std::set<std::string> res = ParenIdents(t, i + 1);
        if (!fn.empty() && !res.empty()) {
          SymbolIndex::ObligationSig& sig = idx.obligations[fn];
          (s == "PSOODB_ACQUIRES" ? sig.acquires : sig.releases)
              .insert(res.begin(), res.end());
          sig.stems.insert(stem);
        }
      }
      continue;
    }
    if (s == "PSOODB_REPLIES") {
      const std::string fn = ObligationTarget(t, i);
      if (!fn.empty()) {
        SymbolIndex::ObligationSig& sig = idx.obligations[fn];
        sig.replies = true;
        sig.stems.insert(stem);
      }
      continue;
    }
    if (s == "PSOODB_PARTITION_LOCAL" || s == "PSOODB_SHARD_SHARED") {
      const std::string name = AnnotatedName(t, i);
      if (!name.empty()) {
        (s == "PSOODB_PARTITION_LOCAL" ? idx.partition_local
                                       : idx.shard_shared)
            .insert(name);
      }
      continue;
    }

    // Mutex / condition-variable / future variable declarations:
    //   std::mutex mu_;   std::future<int> f = ...;   condition_variable cv;
    if (IsMutexTypeName(s) || IsCondvarTypeName(s) || s == "future" ||
        s == "shared_future") {
      std::size_t j = i + 1;
      if (j < t.size() && t[j].Is("<")) j = SkipAngles(t, j);
      while (j < t.size() &&
             (t[j].Is("*") || t[j].Is("&") || t[j].Is("&&"))) {
        ++j;
      }
      if (j + 1 < t.size() && t[j].IsIdent() &&
          !IsNonTypeKeyword(t[j].text)) {
        const Token& after = t[j + 1];
        if (after.Is(";") || after.Is("=") || after.Is("{") ||
            after.Is(",") || after.Is(")") || IsAnnotationMacro(after.text)) {
          ((s == "future" || s == "shared_future")
               ? idx.future_vars
               : (IsMutexTypeName(s) ? idx.mutex_vars : idx.condvar_vars))
              .insert(t[j].text);
        }
      }
      continue;
    }

    if (s == "static") {
      StaticDeclInfo info;
      if (ParseStaticDecl(t, i, &info) && info.mutable_shared) {
        idx.mutable_statics.insert(info.name);
      }
    }
  }
}

void IndexSpawnSite(const Tokens& t, std::size_t i, SymbolIndex& idx) {
  // t[i] == "Spawn", t[i+1] == "(": every `ident(` inside the argument list
  // is a candidate coroutine factory for a detached process.
  const std::size_t close = MatchParen(t, i + 1);
  for (std::size_t j = i + 2; j + 1 < close; ++j) {
    if (t[j].IsIdent() && t[j + 1].Is("(") && !IsNonTypeKeyword(t[j].text)) {
      idx.spawned_functions.insert(t[j].text);
    }
  }
}

}  // namespace

bool IsUnorderedTypeName(const std::string& s) {
  return s.rfind("unordered_", 0) == 0 || s == "FlatSet" || s == "FlatMap";
}

bool IsAnnotationMacro(const std::string& s) {
  return s == "PSOODB_GUARDED_BY" || s == "PSOODB_REQUIRES" ||
         s == "PSOODB_PARTITION_LOCAL" || s == "PSOODB_SHARD_SHARED" ||
         s == "PSOODB_ACQUIRES" || s == "PSOODB_RELEASES" ||
         s == "PSOODB_REPLIES";
}

bool IsCallContextKeyword(const std::string& s) { return IsNonTypeKeyword(s); }

bool ParseStaticDecl(const std::vector<Token>& t, std::size_t i,
                     StaticDeclInfo* out) {
  *out = StaticDeclInfo{};
  bool exempt = false;
  int angle = 0;
  std::string last_ident;
  int last_line = 0;
  for (std::size_t j = i + 1; j < t.size(); ++j) {
    const Token& tk = t[j];
    if (tk.Is("<")) {
      ++angle;
      continue;
    }
    if (tk.Is(">")) {
      if (angle > 0) --angle;
      continue;
    }
    if (tk.Is(">>")) {
      angle = angle >= 2 ? angle - 2 : 0;
      continue;
    }
    if (angle > 0) continue;
    if (tk.Is("[")) {  // array extent: hop to the matching ]
      int d = 0;
      for (; j < t.size(); ++j) {
        if (t[j].Is("[")) ++d;
        if (t[j].Is("]") && --d == 0) break;
      }
      continue;
    }
    if (tk.Is(";") || tk.Is("=") || tk.Is("{")) break;
    if (tk.Is("(")) return false;  // function declaration or definition
    if (tk.Is("}") || tk.Is(")")) return false;  // not a declaration
    if (!tk.IsIdent()) continue;
    const std::string& s = tk.text;
    if (s == "const" || s == "constexpr" || s == "thread_local") {
      exempt = true;
    } else if (IsAnnotationMacro(s)) {
      out->annotated = true;
      if (j + 1 < t.size() && t[j + 1].Is("(")) j = MatchParen(t, j + 1);
    } else if (IsSyncTypeName(s)) {
      out->sync_object = true;
    } else if (s != "inline" && s != "constinit" && s != "struct" &&
               s != "class" && s != "unsigned" && s != "signed" &&
               s != "std") {
      last_ident = s;
      last_line = tk.line;
    }
  }
  if (last_ident.empty()) return false;
  out->name = last_ident;
  out->line = last_line;
  out->mutable_shared = !exempt && !out->sync_object;
  return true;
}

void IndexSymbolsPassA(const LexedFile& f, SymbolIndex& idx) {
  IndexConcurrencyVocab(f, idx);
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].IsIdent()) continue;
    const std::string& s = t[i].text;

    if (s == "enum") {
      IndexEnum(t, i, idx);
      continue;
    }
    if (s == "using") {
      IndexAlias(t, i, idx);
      continue;
    }
    if (s == "Spawn" && i + 1 < t.size() && t[i + 1].Is("(")) {
      IndexSpawnSite(t, i, idx);
      continue;
    }

    // Accessors returning references to unordered containers:
    //   const std::unordered_set<T>& name(
    if (IsUnorderedTypeName(s) && i + 1 < t.size() && t[i + 1].Is("<")) {
      std::size_t after = SkipAngles(t, i + 1);
      if (after < t.size() && t[after].Is("&") && after + 2 < t.size() &&
          t[after + 1].IsIdent() && t[after + 2].Is("(")) {
        idx.unordered_accessors.insert(t[after + 1].text);
      }
      continue;
    }

    // Task-like and plain function declarations: `Type [<...>] Name(`.
    // The declaring-type token must not itself be a call context keyword,
    // and must not be preceded by `.` / `->` (member access chains).
    if (IsNonTypeKeyword(s)) continue;
    if (i > 0 && (t[i - 1].Is(".") || t[i - 1].Is("->"))) continue;
    std::size_t j = i + 1;
    if (j < t.size() && t[j].Is("<")) j = SkipAngles(t, j);
    // Optional ref/pointer declarators on the return type.
    bool saw_ptr_or_ref = false;
    while (j < t.size() && (t[j].Is("*") || t[j].Is("&") || t[j].Is("&&"))) {
      saw_ptr_or_ref = true;
      ++j;
    }
    const std::size_t name_end = QualifiedNameEnd(t, j);
    if (name_end == std::string::npos) continue;
    if (name_end + 1 >= t.size() || !t[name_end + 1].Is("(")) continue;
    const std::string& fn = t[name_end].text;
    if (IsNonTypeKeyword(fn)) continue;
    if (idx.task_type_names.count(s) != 0 && !saw_ptr_or_ref) {
      idx.task_declared.insert(fn);
    } else {
      idx.nontask_declared.insert(fn);
    }
  }
}

void IndexSymbolsPassB(const LexedFile& f, const FrameIndex& fx,
                       SymbolIndex& idx) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].IsIdent()) continue;
    const std::string& s = t[i].text;
    const bool direct = IsUnorderedTypeName(s);
    const bool via_alias = idx.unordered_aliases.count(s) != 0;
    if (!direct && !via_alias) continue;

    bool mapped_unordered = via_alias && idx.unordered_aliases.at(s);
    std::size_t j = i + 1;
    if (j < t.size() && t[j].Is("<")) {
      const std::size_t after = SkipAngles(t, j);
      if (direct && SpanMentionsUnordered(t, j, after, idx)) {
        mapped_unordered = true;
      }
      j = after;
    } else if (direct) {
      continue;  // bare `unordered_map` without args: not a declaration
    }
    // Optional declarators; references/pointers to unordered containers are
    // still unordered for iteration purposes.
    while (j < t.size() && (t[j].Is("*") || t[j].Is("&") || t[j].Is("&&") ||
                            t[j].Is("const"))) {
      ++j;
    }
    if (j >= t.size() || !t[j].IsIdent()) continue;
    const std::string& var = t[j].text;
    if (j + 1 >= t.size()) continue;
    const Token& after_var = t[j + 1];
    // Trailing annotation macros (`... txn_phases_ PSOODB_PARTITION_LOCAL;`)
    // are transparent: the name before them is still the declared variable.
    if (after_var.Is(";") || after_var.Is("=") || after_var.Is("{") ||
        after_var.Is(",") || after_var.Is(")") ||
        IsAnnotationMacro(after_var.text)) {
      bool& flag = idx.unordered_vars[var];
      flag = flag || mapped_unordered;  // merge conservatively on collision
      if (fx.owner[j] < 0 && !after_var.Is(",") && !after_var.Is(")")) {
        bool& member = idx.unordered_members[var];
        member = member || mapped_unordered;
      }
    }
  }
}

}  // namespace psoodb::analyzer
