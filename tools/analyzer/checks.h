/// \file checks.h
/// The seven psoodb-analyze checks. Each runs over one lexed file with the
/// global SymbolIndex and the file's FrameIndex:
///
///   suspend-ref         local ref/pointer/iterator bound to a container
///                       element or buffer frame, used after a later
///                       co_await suspension (the container may have been
///                       mutated while suspended); also by-ref params in
///                       detached (Spawn'ed) coroutines
///   dropped-task        task/awaitable-returning call neither co_awaited
///                       nor stored — a lazy coroutine that never runs, or
///                       a wait that is silently skipped
///   unordered-iter      iteration over an unordered container whose order
///                       feeds results (determinism hazard across stdlibs)
///   det-hazard          wall-clock, global RNG, getpid, pointer-keyed
///                       unordered containers (successor of the retired
///                       regex determinism lint)
///   dcheck-side-effect  mutation inside PSOODB_DCHECK, which compiles away
///                       under NDEBUG
///   enum-switch         switch over a protocol enum missing enumerators
///                       without a checked default
///   await-in-condition  co_await in an if/while/switch condition (past any
///                       init-statement): GCC 12 miscompiles a condition
///                       that awaits a temporary outside a loop, and the
///                       coroutine's body never runs
///
/// The concurrency check family (shard-escape, guarded-by,
/// blocking-in-coroutine, unannotated-shared-static) lives in
/// concurrency.h/.cpp; the obligation family (lock-leak, reply-obligation,
/// obligation-annotation) in dataflow.h/.cpp; protocol-transition in
/// protocol_spec.h/.cpp; stale-suppression is applied by the driver.
///
/// Checks only report; suppression (`det-ok` / `analyzer-ok`) is applied by
/// the driver using LexedFile::comments_by_line.

#ifndef PSOODB_TOOLS_ANALYZER_CHECKS_H_
#define PSOODB_TOOLS_ANALYZER_CHECKS_H_

#include <string>
#include <vector>

#include "analyzer/frames.h"
#include "analyzer/symbols.h"
#include "analyzer/token.h"

namespace psoodb::analyzer {

struct Finding {
  std::string file;
  int line = 0;
  std::string check;
  std::string message;
  bool suppressed = false;
  std::string justification;
  /// Source tokens on the finding line, space-joined; filled by the driver
  /// and hashed into the SARIF partialFingerprints (stable across renames
  /// and line drift, unlike file:line).
  std::string snippet;
};

/// Check-name constants (also the names a suppression marker may list).
inline constexpr const char* kCheckSuspendRef = "suspend-ref";
inline constexpr const char* kCheckDroppedTask = "dropped-task";
inline constexpr const char* kCheckUnorderedIter = "unordered-iter";
inline constexpr const char* kCheckDetHazard = "det-hazard";
inline constexpr const char* kCheckDcheckSideEffect = "dcheck-side-effect";
inline constexpr const char* kCheckEnumSwitch = "enum-switch";
inline constexpr const char* kCheckAwaitInCondition = "await-in-condition";
inline constexpr const char* kCheckBadSuppression = "bad-suppression";
// Concurrency family (tools/analyzer/concurrency.cpp; vocabulary in
// src/util/annotations.h):
inline constexpr const char* kCheckShardEscape = "shard-escape";
inline constexpr const char* kCheckGuardedBy = "guarded-by";
inline constexpr const char* kCheckBlockingInCoroutine =
    "blocking-in-coroutine";
inline constexpr const char* kCheckUnannotatedSharedStatic =
    "unannotated-shared-static";
// Obligation family (tools/analyzer/dataflow.cpp; vocabulary in
// src/util/annotations.h "Obligation vocabulary"):
inline constexpr const char* kCheckLockLeak = "lock-leak";
inline constexpr const char* kCheckReplyObligation = "reply-obligation";
inline constexpr const char* kCheckObligationAnnotation =
    "obligation-annotation";
// Protocol state-machine conformance (tools/analyzer/protocol_spec.cpp):
inline constexpr const char* kCheckProtocolTransition = "protocol-transition";
// Driver-level: a suppression marker matching no finding (unsuppressible,
// like bad-suppression).
inline constexpr const char* kCheckStaleSuppression = "stale-suppression";

/// All check names, for `--list-checks` and suppression validation.
std::vector<std::string> AllCheckNames();

/// Runs every check over `f`. Findings come back ordered by line.
std::vector<Finding> RunChecks(const LexedFile& f, const FrameIndex& fx,
                               const SymbolIndex& sym);

}  // namespace psoodb::analyzer

#endif  // PSOODB_TOOLS_ANALYZER_CHECKS_H_
