/// \file lock_manager.h
/// Server-side lock manager. Callback Locking needs only exclusive (write)
/// locks at the server: cached copies act as implicit read permissions and
/// read requests simply wait until no conflicting write lock exists. Locks
/// exist at page and object granularity; the two interact for the adaptive
/// PS-AA scheme (a page X lock conflicts with any request on the page's
/// objects by other transactions, and vice versa).
///
/// Blocking is implemented with per-resource condition variables; waiters
/// register waits-for edges with the DeadlockDetector and abort if they close
/// a cycle: the acquire or wait stops, and `co_await` on it evaluates to true
/// (see sim/task.h).
///
/// Every table here is a util::Slab indexed by a util::FlatMap: a lock
/// entry (with its CondVar, which never moves while a waiter is parked on
/// it), each transaction's held locks and each page's object locks. Slots
/// are recycled with their list capacity, so a warmed-up lock manager
/// acquires and releases without allocating.

#ifndef PSOODB_CC_LOCK_MANAGER_H_
#define PSOODB_CC_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cc/deadlock_detector.h"
#include "metrics/histogram.h"
#include "sim/awaitables.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "storage/buffer_manager.h"
#include "storage/database.h"
#include "storage/types.h"
#include "trace/trace.h"
#include "util/annotations.h"
#include "util/flat_set.h"
#include "util/slab.h"
#include "util/small_vector.h"

namespace psoodb::cc {

/// Identifies a lockable resource.
enum class Granule : std::uint8_t { kPage, kObject };

class LockManager {
 public:
  LockManager(sim::Simulation& sim, DeadlockDetector& detector)
      : sim_(sim), detector_(detector) {}

  /// Wires the optional event tracer and the always-on lock-wait histogram.
  /// System calls this once per server after construction; unit tests that
  /// build a bare LockManager may skip it (both stay null). `node` is the
  /// owning server's NodeId, stamped into lock events.
  void AttachTracing(trace::Tracer* tracer, metrics::Histogram* lock_wait_hist,
                     int node) {
    tracer_ = tracer;
    lock_wait_hist_ = lock_wait_hist;
    node_ = node;
  }

  // --- Page-granularity X locks -------------------------------------------

  /// Acquires an X lock on `page` for `txn`. Waits behind the current holder;
  /// on deadlock it acquires nothing and ends aborted (its `co_await` is
  /// true). Re-acquiring a held lock is a no-op. [[nodiscard]]: dropping the
  /// returned Task would skip the acquire.
  [[nodiscard]] sim::Task AcquirePageX(storage::PageId page, storage::TxnId txn,
                                       storage::ClientId client)
      PSOODB_ACQUIRES(lock);

  /// Waits until no *other* transaction holds a page X lock on `page`
  /// without acquiring anything (used by read requests). Ends aborted on
  /// deadlock, like AcquirePageX.
  [[nodiscard]] sim::Task WaitPageFree(storage::PageId page,
                                       storage::TxnId txn);

  void ReleasePageX(storage::PageId page, storage::TxnId txn)
      PSOODB_RELEASES(lock);
  storage::TxnId PageXHolder(storage::PageId page) const;
  storage::ClientId PageXHolderClient(storage::PageId page) const;

  // --- Object-granularity X locks -----------------------------------------

  /// Acquires an X lock on `oid` (which lives on `page`) for `txn`.
  [[nodiscard]] sim::Task AcquireObjectX(storage::ObjectId oid,
                                         storage::PageId page,
                                         storage::TxnId txn,
                                         storage::ClientId client)
      PSOODB_ACQUIRES(lock);

  /// Waits until no *other* transaction holds an object X lock on `oid`
  /// (which lives on `page`; used only to tag trace events).
  [[nodiscard]] sim::Task WaitObjectFree(storage::ObjectId oid,
                                         storage::PageId page,
                                         storage::TxnId txn);

  /// Grants an object X lock without blocking. Used by PS-AA lock
  /// de-escalation, where the grantee's page X lock guarantees no
  /// conflicting holder can exist. Asserts the lock is free (or already
  /// held by `txn`).
  void GrantObjectXDirect(storage::ObjectId oid, storage::PageId page,
                          storage::TxnId txn, storage::ClientId client)
      PSOODB_ACQUIRES(lock);

  void ReleaseObjectX(storage::ObjectId oid, storage::TxnId txn)
      PSOODB_RELEASES(lock);
  storage::TxnId ObjectXHolder(storage::ObjectId oid) const;
  storage::ClientId ObjectXHolderClient(storage::ObjectId oid) const;

  /// The slots (under `layout`) of `page`'s objects that transactions other
  /// than `txn` hold object X locks on; 0 if there are none. Walks the
  /// per-page index and allocates nothing.
  storage::SlotMask OtherObjectLockMask(
      storage::PageId page, storage::TxnId txn,
      const storage::ObjectLayout& layout) const;

  // --- Transaction teardown -----------------------------------------------

  /// Releases every lock held by `txn` (commit or abort) and removes it from
  /// the waits-for graph. Returns the number of locks released.
  int ReleaseAll(storage::TxnId txn) PSOODB_RELEASES(lock);

  /// Number of page / object X locks currently held by `txn`.
  std::size_t PagesHeldBy(storage::TxnId txn) const;
  std::size_t ObjectsHeldBy(storage::TxnId txn) const;

  std::uint64_t lock_waits() const { return lock_waits_; }
  /// Transactions currently blocked in an AcquireX/Wait* queue across all
  /// entries — the telemetry "lock-queue depth" gauge. Maintained
  /// incrementally (O(1)), always on: plain integer arithmetic that never
  /// feeds back into the simulation.
  int waiting() const { return waiting_; }
  DeadlockDetector& detector() { return detector_; }

  /// Cross-validates the internal tables (forward maps vs. per-txn reverse
  /// maps vs. the per-page object-lock index). Returns one description per
  /// inconsistency found; empty means coherent. Used by the invariant
  /// checker (src/check/invariants.h).
  std::vector<std::string> CheckCoherence() const;

 private:
  /// One lock. It exists while held or waited on; a free, unwaited entry
  /// goes back to its table's slab (holder and client cleared, no waiters,
  /// its CondVar empty), so a recycled entry starts free.
  struct Entry {
    explicit Entry(sim::Simulation& sim) : cv(sim) {}
    storage::TxnId holder = storage::kNoTxn;
    storage::ClientId holder_client = storage::kNoClient;
    int waiters = 0;
    /// Object locks: the object's page while held (the per-page index key).
    storage::PageId page = 0;
    sim::CondVar cv;
  };

  /// One lock namespace: entries on a slab, indexed by key.
  template <typename Key>
  struct Table {
    util::FlatMap<Key, std::uint32_t> index;
    util::Slab<Entry> entries;
  };

  /// The locks one transaction holds, each list sorted (the ReleaseAll
  /// order).
  struct Held {
    util::SmallVector<storage::PageId, 8> pages;
    util::SmallVector<storage::ObjectId, 8> objects;
  };

  /// Shared acquire/wait loop. If `acquire` is false, returns as soon as the
  /// entry is free without taking it. `page` tags trace events (equals `key`
  /// for page locks) and indexes granted object locks. On an abort verdict it
  /// leaves no entry it made behind, clears its wait edges, records an
  /// aborted wait, and ends aborted.
  template <typename Key>
  sim::Task AcquireX(Table<Key>& table, Key key, storage::PageId page,
                     storage::TxnId txn, storage::ClientId client,
                     bool acquire);

  /// Feeds the lock-wait histogram and, when tracing, attributes the blocked
  /// interval to `txn` and emits the grant/abort span.
  void RecordWaitEnd(bool is_object, std::int64_t oid, storage::PageId page,
                     storage::TxnId txn, double wait_start, bool granted);

  /// Slot of a new, free entry for `key`.
  template <typename Key>
  std::uint32_t NewEntry(Table<Key>& table, Key key);
  /// Makes `txn` the holder of free entry `slot` and records the lock in
  /// the transaction's held list (and, for objects, the per-page index).
  template <typename Key>
  void Grant(Table<Key>& table, std::uint32_t slot, Key key,
             storage::PageId page, storage::TxnId txn,
             storage::ClientId client);
  /// Frees held entry `slot`: wakes its waiters and recycles it if none.
  /// Leaves the holder's held list to the caller.
  template <typename Key>
  void Unlock(Table<Key>& table, std::uint32_t slot, Key key);
  /// Releases `key` if `txn` holds it.
  template <typename Key>
  void ReleaseX(Table<Key>& table, Key key, storage::TxnId txn);
  /// Recycles `key`'s entry if it is free and unwaited.
  template <typename Key>
  void MaybeErase(Table<Key>& table, Key key);

  template <typename Key>
  static const Entry* Lookup(const Table<Key>& table, Key key);

  /// `txn`'s held lists, created empty if absent.
  Held& HeldFor(storage::TxnId txn);
  /// Removes `key` from `txn`'s held list; drops an emptied record.
  template <typename Key>
  void Unhold(storage::TxnId txn, Key key);

  sim::Simulation& sim_;
  DeadlockDetector& detector_;
  trace::Tracer* tracer_ = nullptr;
  metrics::Histogram* lock_wait_hist_ = nullptr;
  int node_ = 0;
  Table<storage::PageId> pages_;
  Table<storage::ObjectId> objects_;
  /// txn -> slot in held_, for ReleaseAll.
  util::FlatMap<storage::TxnId, std::uint32_t> held_index_;
  util::Slab<Held> held_;
  /// page -> slot in page_objects_: the sorted object ids with live object
  /// X locks (for PS-AA grant checks and "mark unavailable" scans when
  /// shipping pages).
  util::FlatMap<storage::PageId, std::uint32_t> page_objects_index_;
  util::Slab<util::SmallVector<storage::ObjectId, 4>> page_objects_;
  std::uint64_t lock_waits_ = 0;
  /// Invariant: sum of Entry::waiters over both tables (see waiting()).
  int waiting_ = 0;
};

}  // namespace psoodb::cc

#endif  // PSOODB_CC_LOCK_MANAGER_H_
