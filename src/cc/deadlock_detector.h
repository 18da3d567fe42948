/// \file deadlock_detector.h
/// Central waits-for-graph deadlock detection. The server observes all
/// blocking in the system — lock-queue waits and callbacks blocked by a
/// client's active transaction ("in use" responses) — so a single graph
/// suffices. Detection runs at wait time: when transaction T is about to
/// wait on holders H, edges T->H are added and a cycle through T aborts T.

#ifndef PSOODB_CC_DEADLOCK_DETECTOR_H_
#define PSOODB_CC_DEADLOCK_DETECTOR_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "storage/types.h"
#include "util/flat_set.h"
#include "util/slab.h"
#include "util/small_vector.h"

namespace psoodb::sim {
class CondVar;
}  // namespace psoodb::sim

namespace psoodb::cc {

/// One waits-for edge mutation. Detectors with delta logging enabled
/// (partitioned runs) append every net edge change to an internal log in
/// event order; the cross-partition DeadlockCoordinator drains the logs each
/// window and folds them into its persistent union graph, so the serial
/// phase never rebuilds the graph from scratch. Edges added and removed
/// again inside one OnWait call (the immediate-cycle rollback path) are net
/// zero and are never logged.
struct EdgeDelta {
  storage::TxnId waiter;
  storage::TxnId blocker;
  bool add;  ///< true: edge appeared; false: edge vanished
};

class DeadlockDetector {
 public:
  /// Records that `waiter` is (about to be) blocked on each of `holders`.
  /// Returns true if `waiter` must abort instead: it is a marked victim
  /// (see CheckVictim), or the wait closes a cycle through it, in which case
  /// the new edges are removed again and the deadlock is counted.
  [[nodiscard]] bool OnWait(storage::TxnId waiter,
                            std::span<const storage::TxnId> holders);
  /// The same for a braced list (`OnWait(txn, {holder})`), which needs no
  /// heap block.
  [[nodiscard]] bool OnWait(storage::TxnId waiter,
                            std::initializer_list<storage::TxnId> holders) {
    return OnWait(waiter, std::span<const storage::TxnId>(holders.begin(),
                                                          holders.size()));
  }

  /// Removes all outgoing wait edges of `waiter` (call when its wait ends,
  /// successfully or not).
  void ClearWaits(storage::TxnId waiter);

  /// Removes the transaction entirely (commit/abort): both its outgoing
  /// edges and any incoming edges from other waiters.
  void RemoveTxn(storage::TxnId txn);

  /// True if a path txn -> ... -> txn exists. Searches with member scratch
  /// (no allocation once warm); not reentrant.
  bool HasCycleFrom(storage::TxnId txn) const;

  std::uint64_t deadlocks_detected() const { return deadlocks_; }
  /// Current number of waits-for edges, maintained incrementally (O(1)).
  std::size_t edge_count() const { return edges_; }

  /// All current waits-for edges as (waiter, blocker) pairs, sorted so the
  /// result is independent of hash-table iteration order. Used by the
  /// invariant checker and the coordinator cross-validation hook.
  std::vector<std::pair<storage::TxnId, storage::TxnId>> Edges() const;

  // --- Cross-partition deadlock support (partitioned runs, sim/shard.h) ---
  //
  // With one detector per partition, a cycle spanning partitions is
  // invisible to each detector's immediate OnWait check. The serial-phase
  // DeadlockCoordinator (cc/deadlock_coordinator.h) folds each detector's
  // edge deltas into a persistent union graph, finds cycles, and aborts a
  // victim per cycle. The victim is parked inside a partition's event loop,
  // so the abort is delivered asynchronously: MarkVictim() here, a wake poke
  // through the victim's registered wait channel, and a CheckVictim() abort
  // verdict in the re-entered wait loop. Victim marks survive ClearWaits (the
  // wait loops clear edges on wake *before* re-checking) and are erased only
  // by that verdict or RemoveTxn.

  /// Enables the edge-delta log (see EdgeDelta). Only runs with several
  /// partitions turn this on; one partition pays nothing for the machinery.
  void EnableDeltaLog() { delta_log_enabled_ = true; }
  /// True when edge mutations are waiting to be drained — the coordinator's
  /// O(1) per-window "did anything change" probe.
  bool has_deltas() const { return !delta_log_.empty(); }
  /// Appends the pending deltas to *out in event order and clears the log.
  void DrainDeltas(std::vector<EdgeDelta>* out);

  /// Marks `txn` for asynchronous abort and counts the deadlock. The caller
  /// must also wake the transaction (see WaitChannel()).
  void MarkVictim(storage::TxnId txn);

  /// True while `txn` is marked and has not yet observed the abort.
  bool IsVictim(storage::TxnId txn) const {
    return !victims_.empty() && victims_.count(txn) != 0;
  }

  /// Returns true (erasing the mark) if `txn` is a marked victim that must
  /// abort; otherwise false. Wait loops call this on entry and after every
  /// wake, so a victim aborts even if a racing grant woke it.
  [[nodiscard]] bool CheckVictim(storage::TxnId txn);

  /// Wait-channel registry: while a transaction is parked on a CondVar it
  /// registers the CondVar here (RAII at the wait sites) so the coordinator
  /// can wake it. One channel per transaction — a coroutine waits in exactly
  /// one place.
  void RegisterWaitChannel(storage::TxnId txn, sim::CondVar* cv);
  void UnregisterWaitChannel(storage::TxnId txn, sim::CondVar* cv);
  /// The victim's registered CondVar, or nullptr if it is not parked here.
  sim::CondVar* WaitChannel(storage::TxnId txn) const;

  /// Transactions currently parked on a registered wait channel — the
  /// telemetry "blocked transactions" gauge (size only; never iterated).
  std::size_t parked() const { return wait_channels_.size(); }

 private:
  /// Sorted out-edge list. Small and flat: the typical waiter blocks on one
  /// or two holders, so the edges live inline with no per-node allocation
  /// and iterate in deterministic (sorted) order.
  using EdgeList = util::SmallVector<storage::TxnId, 8>;

  void LogDelta(storage::TxnId waiter, storage::TxnId blocker, bool add) {
    if (delta_log_enabled_) delta_log_.push_back({waiter, blocker, add});
  }

  /// `waiter`'s out-edge list, or null.
  const EdgeList* OutEdges(storage::TxnId waiter) const {
    const std::uint32_t* slot = out_index_.find(waiter);
    return slot == nullptr ? nullptr : &edge_lists_[*slot];
  }
  /// Drops `waiter`'s (emptied) list and recycles its slot.
  void DropOutEdges(storage::TxnId waiter, std::uint32_t slot) {
    edge_lists_[slot].clear();
    out_index_.erase(waiter);
    edge_lists_.Release(slot);
  }

  /// waiter -> slot in edge_lists_; only waiters with edges are indexed.
  util::FlatMap<storage::TxnId, std::uint32_t> out_index_;
  util::Slab<EdgeList> edge_lists_;
  util::FlatSet<storage::TxnId> victims_;
  util::FlatMap<storage::TxnId, sim::CondVar*> wait_channels_;
  /// HasCycleFrom's search state, kept to reuse its capacity.
  mutable util::FlatSet<storage::TxnId> visited_;
  mutable std::vector<storage::TxnId> stack_;
  /// RemoveTxn's waiters with an edge to the removed transaction.
  std::vector<storage::TxnId> incoming_;
  std::vector<EdgeDelta> delta_log_;
  bool delta_log_enabled_ = false;
  std::uint64_t deadlocks_ = 0;
  std::size_t edges_ = 0;  ///< invariant: sum of edge_lists_ sizes
};

/// RAII registration of a wait channel, scoped strictly around the
/// `co_await cv.Wait()` it covers so the detector never holds a dangling
/// CondVar pointer.
class ScopedWaitChannel {
 public:
  ScopedWaitChannel(DeadlockDetector& d, storage::TxnId txn, sim::CondVar* cv)
      : d_(d), txn_(txn), cv_(cv) {
    d_.RegisterWaitChannel(txn_, cv_);
  }
  ~ScopedWaitChannel() { d_.UnregisterWaitChannel(txn_, cv_); }
  ScopedWaitChannel(const ScopedWaitChannel&) = delete;
  ScopedWaitChannel& operator=(const ScopedWaitChannel&) = delete;

 private:
  DeadlockDetector& d_;
  storage::TxnId txn_;
  sim::CondVar* cv_;
};

}  // namespace psoodb::cc

#endif  // PSOODB_CC_DEADLOCK_DETECTOR_H_
