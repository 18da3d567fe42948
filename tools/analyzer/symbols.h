/// \file symbols.h
/// Global, name-based symbol index for psoodb-analyze. Built in two passes
/// over every lexed file before any check runs, so uses in one translation
/// unit resolve against declarations in another:
///
///   pass A: type aliases, enum classes, unordered-returning accessors,
///           task-returning function declarations, Spawn() call sites;
///   pass B: variables of unordered container type (direct or via a pass-A
///           alias).
///
/// The index is deliberately name-based (no types, no overload resolution).
/// A name declared BOTH with a task-like return type and with any other
/// return type is ambiguous and dropped from the task set — a documented
/// false-negative trade that keeps DROPPED-TASK free of false positives.
///
/// Pass A also indexes the concurrency vocabulary from src/util/annotations.h
/// (PSOODB_GUARDED_BY / PSOODB_REQUIRES / PSOODB_PARTITION_LOCAL /
/// PSOODB_SHARD_SHARED) plus the mutex / condition-variable / future
/// variables and mutable statics the concurrency checks reason about.

#ifndef PSOODB_TOOLS_ANALYZER_SYMBOLS_H_
#define PSOODB_TOOLS_ANALYZER_SYMBOLS_H_

#include <map>
#include <set>
#include <string>

#include "analyzer/frames.h"
#include "analyzer/token.h"

namespace psoodb::analyzer {

struct SymbolIndex {
  /// Return-type names treated as "task-like": discarding a call that yields
  /// one of these silently skips work (lazy coroutine) or a wait (awaitable).
  std::set<std::string> task_type_names{"Task", "Future", "Awaiter",
                                        "DelayAwaiter"};

  /// Function names seen declared with a task-like return type.
  std::set<std::string> task_declared;
  /// Function names seen declared with any other return type (disambiguator).
  std::set<std::string> nontask_declared;
  /// Coroutine factories passed to a Spawn(...) call (detached processes).
  std::set<std::string> spawned_functions;
  /// Variable name -> "mapped type is itself an unordered container".
  std::map<std::string, bool> unordered_vars;
  /// The subset declared at class or namespace scope (struct members and
  /// globals; no locals or parameters): the names an access chain such as
  /// `obj.member` or `slab[i].member` can reach.
  std::map<std::string, bool> unordered_members;
  /// using-alias name -> mapped-unordered flag.
  std::map<std::string, bool> unordered_aliases;
  /// Methods returning (const) references to unordered containers.
  std::set<std::string> unordered_accessors;
  /// enum-class name -> enumerator names.
  std::map<std::string, std::set<std::string>> enums;

  // --- Concurrency vocabulary (see src/util/annotations.h) ---------------

  struct GuardedField {
    std::string mutex;  ///< name inside PSOODB_GUARDED_BY(...)
    std::string stem;   ///< declaring file's stem, e.g. "thread_pool"
  };
  /// Field name -> its guard. Name-based, so access checks are restricted
  /// to files sharing the declaring file's stem (header + its .cpp).
  std::map<std::string, GuardedField> guarded_fields;
  /// Function name -> mutexes its PSOODB_REQUIRES(...) lists.
  std::map<std::string, std::set<std::string>> requires_fns;
  /// Names annotated PSOODB_PARTITION_LOCAL (single-owner shard state).
  std::set<std::string> partition_local;
  /// Names annotated PSOODB_SHARD_SHARED (deliberately cross-thread).
  std::set<std::string> shard_shared;
  /// Variables of std mutex / condition-variable / future type.
  std::set<std::string> mutex_vars;
  std::set<std::string> condvar_vars;
  std::set<std::string> future_vars;
  /// Mutable `static`-declared variables (non-const, non-thread_local,
  /// unannotated or not) — escape targets for shard-escape.
  std::set<std::string> mutable_statics;

  // --- Obligation vocabulary (third-generation checks; see ---------------
  // --- src/util/annotations.h "Obligation vocabulary") --------------------

  struct ObligationSig {
    /// Resource classes from PSOODB_ACQUIRES(...) on any declaration.
    std::set<std::string> acquires;
    /// Resource classes from PSOODB_RELEASES(...) on any declaration.
    std::set<std::string> releases;
    /// Declaration carries PSOODB_REPLIES (owes exactly one promise send).
    bool replies = false;
    /// Stems of the files carrying the annotated declarations. Name-based
    /// resolution, so obligation effects apply only in files sharing a
    /// declaring stem unless every in-tree definition does (see dataflow.h).
    std::set<std::string> stems;
  };
  /// Function name -> its declared acquire/release/reply contract.
  std::map<std::string, ObligationSig> obligations;

  bool IsTaskFunction(const std::string& name) const {
    return task_declared.count(name) != 0 && nontask_declared.count(name) == 0;
  }
  /// Returns true (+ mapped-unordered flag via out-param) for known
  /// unordered-typed variables.
  bool IsUnorderedVar(const std::string& name, bool* mapped_unordered) const {
    auto it = unordered_vars.find(name);
    if (it == unordered_vars.end()) return false;
    if (mapped_unordered != nullptr) *mapped_unordered = it->second;
    return true;
  }
  bool IsUnorderedMember(const std::string& name,
                         bool* mapped_unordered) const {
    auto it = unordered_members.find(name);
    if (it == unordered_members.end()) return false;
    if (mapped_unordered != nullptr) *mapped_unordered = it->second;
    return true;
  }
};

/// Pass A: aliases, enums, accessors, task functions, Spawn sites, and the
/// concurrency vocabulary (annotations, mutexes, futures, statics).
void IndexSymbolsPassA(const LexedFile& f, SymbolIndex& idx);
/// Pass B: unordered-typed variables (requires pass A aliases for all files,
/// and `fx`, the file's frames, to tell members from locals).
void IndexSymbolsPassB(const LexedFile& f, const FrameIndex& fx,
                       SymbolIndex& idx);

/// True for the hash-container type names whose iteration order is a layout
/// detail: std::unordered_* and util::FlatSet / util::FlatMap
/// (src/util/flat_set.h). Shared by the symbol index and the checks.
bool IsUnorderedTypeName(const std::string& s);

/// True for the no-op annotation macro names; declaration parsers treat them
/// as transparent (they sit between a declarator and its `;` / `= init`).
bool IsAnnotationMacro(const std::string& s);

/// Keywords that may directly precede a call expression (`return Foo()`),
/// i.e. an `ident (` preceded by one of these is a call, not a declaration.
bool IsCallContextKeyword(const std::string& s);

/// Parsed `static` declaration, shared between pass A (mutable_statics) and
/// the unannotated-shared-static check.
struct StaticDeclInfo {
  std::string name;
  int line = 0;               ///< line of the declared name
  bool mutable_shared = false;  ///< not const/constexpr/thread_local/function
  bool annotated = false;       ///< carries a PSOODB_* annotation
  bool sync_object = false;     ///< mutex/condvar/atomic/... (self-ordering)
};

/// Parses the declaration starting at the `static` keyword at t[i]. Returns
/// false for non-declarations (static_cast chains, member fn declarations,
/// `static` storage-class on function definitions, ...).
bool ParseStaticDecl(const std::vector<Token>& t, std::size_t i,
                     StaticDeclInfo* out);

}  // namespace psoodb::analyzer

#endif  // PSOODB_TOOLS_ANALYZER_SYMBOLS_H_
