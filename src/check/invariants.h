/// \file invariants.h
/// Cross-component protocol invariant checker. Validates, at event
/// boundaries and at protocol hook points, the shared-state invariants that
/// all five callback-locking variants (plus PS-WT) must maintain:
///
///  * Single writer: at most one non-terminating client holds a write
///    permission per page/object, the server lock tables back every client
///    permission, and no conflicting reader or cached copy coexists with it
///    at the active granularity.
///  * Cache subset of copy tables: every client-cached (readable) item is
///    registered in the server copy table at the protocol's granularity.
///    (Only this direction is checkable: a registration may legitimately
///    precede the arrival of an in-flight page/object ship.)
///  * Callback drains: a write permission is granted only after its callback
///    batch fully drained (no pending final outcomes, no unprocessed
///    blockers).
///  * Waits-for sanity: every waiter in the deadlock graph is some client's
///    active transaction, and the graph is acyclic between detections.
///  * PS-WT staging: every transaction with token-flush updates staged at a
///    server is some client's active transaction (its commit folds the
///    entry, its abort discards it).
///  * Abort purge: after an abort's purge the client caches nothing of its
///    write set, so no later transaction reads an aborted update.
///  * PS-AA de-escalation: requested only against the actual page X holder;
///    on completion the page lock is released, the written objects are
///    object-locked by the holder, and the holder client dropped its page
///    write permission.
///  * Lock-manager internal coherence (forward maps vs. reverse maps vs. the
///    per-page object-lock index).
///  * Dirty-page count: each server's running count of dirty buffer frames
///    (the telemetry gauge) equals a walk of its buffer.
///
/// Enabled via SystemParams::invariant_checks (or the PSOODB_INVARIANTS
/// environment variable); see docs/SIMULATOR.md for the full catalog with
/// the reasoning behind each checkable direction.

#ifndef PSOODB_CHECK_INVARIANTS_H_
#define PSOODB_CHECK_INVARIANTS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "storage/types.h"

namespace psoodb::core {
class Client;
class Server;
class System;
struct CallbackBatch;
enum class GrantLevel : std::uint8_t;
}  // namespace psoodb::core

namespace psoodb::cc {
class DeadlockCoordinator;
class DeadlockDetector;
}  // namespace psoodb::cc

namespace psoodb::check {

/// One detected invariant violation.
struct Violation {
  std::string what;
  double sim_time = 0;       ///< simulated seconds when detected
  std::uint64_t event = 0;   ///< events processed when detected
};

class InvariantChecker {
 public:
  struct Options {
    /// Abort the process (via util::CheckFail) on the first violation
    /// instead of recording it.
    bool failfast = false;
    /// Violations kept verbatim; further ones are only counted.
    int max_recorded = 64;
    /// Run a full sweep every this many events (0 disables periodic sweeps;
    /// hook checks still run).
    std::uint64_t event_period = 1000;
  };

  explicit InvariantChecker(core::System& system);
  InvariantChecker(core::System& system, Options opts);

  /// Runs every global check once (lock tables, waits-for graph, staged
  /// flushes, client caches vs. copy tables, single-writer, read
  /// footprints).
  void CheckAll();
  /// Called by System::Run after each event; sweeps every `event_period`.
  void OnEvent();

  // --- Protocol hooks (called by protocol code when enabled) ---------------

  /// A write-request handler finished waiting for its callback batch.
  void OnCallbacksDrained(core::Server& server,
                          const core::CallbackBatch& batch,
                          storage::TxnId txn);
  /// An abort handler finished: `txn` must hold no locks at this server
  /// (the abort path released everything — the runtime twin of the
  /// analyzer's lock-leak abort-path rule).
  void OnAbortReleased(core::Server& server, storage::TxnId txn);
  /// A client's abort purged its updates from its cache: it caches no page
  /// (page family) and no object (object server) of its write set, also
  /// none a PS-WT token flush left clean.
  void OnAbortPurged(const core::Client& client);
  /// A write permission is about to be granted to `client` for `txn`.
  /// `oid` is negative for page-level grants without a staked object lock
  /// (plain PS).
  void OnWriteGrant(core::Server& server, core::GrantLevel level,
                    storage::PageId page, storage::ObjectId oid,
                    storage::TxnId txn, storage::ClientId client);
  /// PS-AA: a de-escalation of `holder`'s page X lock is being requested.
  void OnDeEscalationRequested(core::Server& server, storage::PageId page,
                               storage::TxnId holder);
  /// PS-AA: the de-escalation completed (object locks granted, page lock
  /// released).
  void OnDeEscalated(core::Server& server, storage::PageId page,
                     storage::TxnId holder, storage::ClientId holder_client,
                     const std::vector<storage::ObjectId>& written);

  // --- Results -------------------------------------------------------------

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty() && dropped_ == 0; }
  std::uint64_t checks_run() const { return checks_run_; }
  std::uint64_t sweeps_run() const { return sweeps_run_; }
  /// Violations beyond max_recorded (counted, not stored).
  std::uint64_t dropped() const { return dropped_; }
  void Report(std::FILE* out) const;

 private:
  /// Counts one check; on failure formats and records a violation.
  /// Returns `cond`.
  bool Expect(bool cond, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  void Record(const char* what);

  void CheckLockTables();
  void CheckDirtyPages();
  void CheckWaitsFor();
  void CheckStaging();
  void CheckClientCaches();
  void CheckSingleWriter();
  void CheckReadFootprints();

  core::System& system_;
  Options opts_;
  std::vector<Violation> violations_;
  std::uint64_t checks_run_ = 0;
  std::uint64_t sweeps_run_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Cross-validates the incremental cross-partition deadlock coordinator
/// against the ground truth it mirrors: the multiset union of every
/// partition detector's edge list. Aborts (PSOODB_CHECK) on any divergence
/// in edges or multiplicities. Called from the serial phase of a run with
/// several partitions when SystemParams::invariant_checks is on — the full
/// InvariantChecker needs one event loop, but this check is partition-safe
/// because the serial phase parks all workers.
void ValidateDeadlockCoordinator(
    const cc::DeadlockCoordinator& coordinator,
    const std::vector<const cc::DeadlockDetector*>& detectors);

}  // namespace psoodb::check

#endif  // PSOODB_CHECK_INVARIANTS_H_
