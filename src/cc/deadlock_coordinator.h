/// \file deadlock_coordinator.h
/// Incremental cross-partition deadlock detection for partitioned runs
/// (sim/shard.h). One DeadlockDetector per partition catches intra-partition
/// cycles immediately at OnWait time — each partition's own graph is
/// therefore always acyclic — but a cycle spanning partitions is invisible
/// to every individual detector. The coordinator runs in the window serial
/// phase (all workers parked) and maintains a *persistent* union of the
/// per-partition waits-for graphs, fed by the detectors' edge-delta logs
/// (DeadlockDetector::DrainDeltas), so a window's cost is proportional to
/// what changed, not to the graph:
///
///  - Apply() folds one partition's deltas into the union graph, maintaining
///    per-transaction per-partition incidence counts. A transaction with
///    incident edges in >= 2 partitions is a *boundary* transaction; any
///    union-graph cycle spans >= 2 partitions (the per-partition graphs are
///    acyclic) and therefore contains a boundary transaction, so a zero
///    boundary count proves there is no cycle without any search.
///  - Every added edge's waiter becomes a *dirty seed*. A new cycle must
///    contain a new edge, hence that edge's waiter, so Scan() searches only
///    from the seeds accumulated since the last scan: after a scan the
///    remaining graph (excluding still-pending victims) is again acyclic.
///    Seeds whose partition has no boundary transaction are skipped — a
///    cross-partition cycle through a partition's edges needs a boundary
///    transaction incident to that partition.
///  - Scan(full=true) seeds every waiter instead (the force-scan-on-drain
///    liveness rule: when the event heaps drain, a missed cycle would stall
///    the run forever, so the throttled incremental path is bypassed).
///
/// Victim policy (identical to the full-recompute it replaced, asserted by
/// tests/deadlock_coordinator_test.cpp): seeds are processed in ascending
/// transaction id; for each cycle found, the victim is the youngest
/// (highest-id) transaction on the cycle; victims stay excluded from every
/// search until the caller observes their abort and calls ClearPending().
/// All iteration is over sorted containers, so the victim sequence is a pure
/// function of the fold-order of the deltas — byte-identical across worker
/// thread counts.

#ifndef PSOODB_CC_DEADLOCK_COORDINATOR_H_
#define PSOODB_CC_DEADLOCK_COORDINATOR_H_

#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cc/deadlock_detector.h"
#include "storage/types.h"
#include "util/small_vector.h"

namespace psoodb::cc {

class DeadlockCoordinator {
 public:
  explicit DeadlockCoordinator(int partitions);

  /// A marked victim and the partition whose detector holds its wait edges
  /// (where it is blocked — the partition that must deliver the wake poke).
  struct Victim {
    storage::TxnId txn;
    int partition;
  };

  /// Folds `n` edge deltas published by `partition`'s detector into the
  /// union graph. Call once per partition per window, in partition order.
  void Apply(int partition, const EdgeDelta* deltas, std::size_t n);

  /// Cycle search over the dirty seeds (or every waiter when `full`).
  /// Appends one Victim per cycle found to *victims and records them as
  /// pending; pending victims are invisible to subsequent searches. Clears
  /// the dirty set.
  void Scan(bool full, std::vector<Victim>* victims);

  /// True when edges changed since the last Scan — cheap throttle probe.
  bool has_dirty() const { return !dirty_.empty(); }

  /// Forgets a pending victim once its abort was observed (the detector's
  /// mark is gone). Its remaining edges, if any, rejoin future searches.
  void ClearPending(storage::TxnId txn);
  /// Still-pending victims, ascending txn id.
  const std::vector<storage::TxnId>& pending() const { return pending_; }

  // --- Introspection (stats, validation, tests) ---------------------------
  std::size_t edge_count() const { return edge_count_; }
  /// Transactions with incident edges in >= 2 partitions.
  std::size_t boundary_count() const { return boundary_count_; }
  std::uint64_t scans() const { return scans_; }
  std::uint64_t full_scans() const { return full_scans_; }
  /// Scans answered by the zero-boundary proof without any graph search.
  std::uint64_t scans_skipped_no_boundary() const {
    return scans_skipped_no_boundary_;
  }
  std::uint64_t deltas_applied() const { return deltas_applied_; }
  std::uint64_t victims_marked() const { return victims_marked_; }

  /// Every union-graph edge as (waiter, blocker, multiplicity), sorted.
  /// Multiplicity counts the partitions currently publishing the edge (the
  /// same waiter/blocker pair can appear in two detectors while a
  /// transaction migrates its wait). Used by the cross-validation hook
  /// (check/invariants.h) and the model-check test.
  std::vector<std::tuple<storage::TxnId, storage::TxnId, std::uint32_t>>
  SnapshotEdges() const;

 private:
  /// Out-edge with a per-(waiter,blocker) multiplicity: the same edge can be
  /// published by two partitions simultaneously (stale edge in one while the
  /// wait re-registers in another), and must survive until both remove it.
  struct OutEdge {
    storage::TxnId to;
    std::uint32_t count;
  };
  /// (partition, edges incident to this txn in that partition).
  struct PartCount {
    std::int32_t partition;
    std::uint32_t count;
  };
  struct Node {
    util::SmallVector<OutEdge, 4> out;       ///< sorted by `to`
    util::SmallVector<PartCount, 2> incid;   ///< sorted by partition; both
                                             ///< endpoints of every edge
    util::SmallVector<PartCount, 2> waits_in;  ///< waiter-side only: where
                                               ///< this txn's out-edges live
  };

  /// +1/-1 on txn's incidence count for `partition`, maintaining the
  /// boundary bookkeeping; erases the node if it became fully disconnected.
  void BumpIncidence(storage::TxnId txn, int partition, int delta);
  static void BumpPartCount(util::SmallVector<PartCount, 2>* v, int partition,
                            int delta);
  /// One deterministic DFS: finds a cycle through `seed` (excluding pending
  /// victims), or returns false. On success *cycle holds the cycle's nodes.
  bool FindCycleThrough(storage::TxnId seed,
                        std::vector<storage::TxnId>* cycle) const;
  bool IsPending(storage::TxnId t) const;

  const int partitions_;
  std::unordered_map<storage::TxnId, Node> nodes_;
  /// (waiter, partition of the added edge) since the last Scan; deduped and
  /// sorted at scan time.
  std::vector<std::pair<storage::TxnId, std::int32_t>> dirty_;
  std::vector<storage::TxnId> pending_;  ///< sorted ascending
  std::size_t edge_count_ = 0;           ///< with multiplicity
  std::size_t boundary_count_ = 0;
  /// boundary_in_partition_[p] = boundary transactions incident to p.
  std::vector<std::size_t> boundary_in_partition_;
  std::uint64_t scans_ = 0;
  std::uint64_t full_scans_ = 0;
  std::uint64_t scans_skipped_no_boundary_ = 0;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t victims_marked_ = 0;
  // Scratch for Scan/FindCycleThrough, kept hot across windows.
  mutable std::vector<storage::TxnId> seed_scratch_;
  mutable std::vector<storage::TxnId> dfs_path_;
  mutable std::unordered_map<storage::TxnId, char> dfs_color_;
};

}  // namespace psoodb::cc

#endif  // PSOODB_CC_DEADLOCK_COORDINATOR_H_
