/// \file dataflow.h
/// Interprocedural obligation-dataflow engine for psoodb-analyze's third
/// check generation (see docs/ANALYZER.md "Obligation checks").
///
/// The engine consumes the obligation vocabulary of src/util/annotations.h
/// (PSOODB_ACQUIRES / PSOODB_RELEASES / PSOODB_REPLIES) from the
/// SymbolIndex, resolves each annotated name's scope against every in-tree
/// definition, and closes *release* summaries over the PR 7 call graph so a
/// helper that only forwards to an annotated release function discharges the
/// same obligation at its own call sites. On top of the per-function
/// summaries, exit-path enumeration over each frame — early `return` /
/// `co_return`, abort branches (the statement an `if` runs when it tests a
/// returned abort outcome: a `co_await` of a task, or the detector's
/// `OnWait` / `CheckVictim`), fall-through — drives three checks:
///
///   lock-leak            an exit path (including abort branches) that
///                        acquires a resource (lock, buffer pin, copy-table
///                        registration, callback batch) without a matching
///                        release reachable on that path
///   reply-obligation     a message handler (On*/Handle* taking a
///                        sim::Promise by value) with an exit path that never
///                        consumes the promise — a dropped reply is a hung
///                        client once psoodbd serves real sockets
///   obligation-annotation  conformance of the vocabulary itself: malformed
///                        annotations, annotations detached from a function
///                        declarator, PSOODB_REPLIES without a promise
///                        parameter, promise-taking handlers missing
///                        PSOODB_REPLIES, and contradictory
///                        ACQUIRES(r)+RELEASES(r) pairs
///
/// Like the rest of the analyzer, resolution is name-based and every rule is
/// tuned to trade false negatives for zero false positives:
///
///  - An annotated name's effects are GLOBAL only when every in-tree
///    definition of that name lives in a file stem that carries the
///    annotation; otherwise the effects apply only inside declaring-stem
///    files (so `Write` the protocol method never taints `Write` the
///    stream method).
///  - A frame that is itself annotated PSOODB_ACQUIRES(r) is exempt from the
///    lock-leak rules for `r`: the annotation declares that ownership
///    transfers onward (to the transaction, the copy-table epoch, ...).
///  - Calls inside a Spawn(...) argument list transfer the obligation to the
///    detached coroutine and are never effects of the spawning frame —
///    except promise *consumption*, which is the transfer.
///  - An abort branch that ends its task aborted (`co_await
///    sim::EndAborted()`) hands its obligations to the awaiter's abort
///    branch.
///  - An acquire awaited by an abort branch's own test ended aborted and
///    holds nothing: only acquires before the `if` are owed in the branch.
///  - The `batch` resource is released-on-abort (AwaitCallbacks marks the
///    batch dead before it ends aborted), so a release before the branch —
///    the AwaitCallbacks its test awaits — satisfies it for `batch` only.

#ifndef PSOODB_TOOLS_ANALYZER_DATAFLOW_H_
#define PSOODB_TOOLS_ANALYZER_DATAFLOW_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer/callgraph.h"
#include "analyzer/checks.h"
#include "analyzer/frames.h"
#include "analyzer/symbols.h"
#include "analyzer/token.h"

namespace psoodb::analyzer {

/// Scope-resolved per-function obligation summaries. Built once after the
/// symbol passes, all frames, and the finalized call graph.
struct ObligationIndex {
  struct Entry {
    std::set<std::string> acquires;  ///< resource classes this call creates
    std::set<std::string> releases;  ///< resource classes this call discharges
    bool replies = false;            ///< owes exactly one promise send
    /// Effects hold in every file (every in-tree definition of the name
    /// lives in a declaring stem); otherwise declaring-stem files only.
    bool global = false;
    std::set<std::string> stems;  ///< stems declaring the annotation
  };
  std::map<std::string, Entry> entries;

  /// The entry for `name` if its effects apply in a file with stem `stem`.
  const Entry* Lookup(const std::string& name, const std::string& stem) const {
    auto it = entries.find(name);
    if (it == entries.end()) return nullptr;
    if (!it->second.global && it->second.stems.count(stem) == 0) {
      return nullptr;
    }
    return &it->second;
  }
};

/// Builds the obligation index: copies the annotation vocabulary out of
/// `sym`, resolves global-vs-stem scope against every definition in
/// `frames`, and runs the release-propagation fixpoint over `cg` (a
/// single-definition, non-coroutine, unannotated helper whose callees
/// include a global release-of-r — and no acquire — derives release-of-r).
ObligationIndex BuildObligationIndex(
    const std::vector<LexedFile>& files,
    const std::vector<FrameIndex>& frames, const SymbolIndex& sym,
    const CallGraph& cg);

/// Runs lock-leak, reply-obligation and obligation-annotation over one file.
/// Findings ordered by line. The exit-path rules (lock-leak,
/// reply-obligation, handler-missing-REPLIES) apply only to simulator
/// sources (a `src/` path component) and `.cxx` fixtures; annotation
/// conformance applies everywhere the macros appear.
std::vector<Finding> RunObligationChecks(const LexedFile& f,
                                         const FrameIndex& fx,
                                         const SymbolIndex& sym,
                                         const ObligationIndex& oi);

/// Resource classes the vocabulary accepts (see src/util/annotations.h).
bool IsKnownResourceClass(const std::string& s);

}  // namespace psoodb::analyzer

#endif  // PSOODB_TOOLS_ANALYZER_DATAFLOW_H_
