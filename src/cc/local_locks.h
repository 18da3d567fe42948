/// \file local_locks.h
/// Client-side lock state for the (single) active transaction at a client.
/// Under Callback Locking, read locks are managed locally: reading a cached
/// item records it here, and incoming callbacks test for conflicts against
/// this footprint. PS-AA additionally records both granularities so locks can
/// be de-escalated (Section 3.3.3).

#ifndef PSOODB_CC_LOCAL_LOCKS_H_
#define PSOODB_CC_LOCAL_LOCKS_H_

#include <bit>

#include "storage/buffer_manager.h"
#include "storage/database.h"
#include "storage/types.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/flat_set.h"

namespace psoodb::cc {

/// One page's share of a transaction's footprint, as masks over the page's
/// object slots. Every written object is also read.
struct PageFootprint {
  storage::SlotMask read = 0;
  storage::SlotMask written = 0;
  /// Objects on which the server granted the transaction an object X lock.
  storage::SlotMask write_locked = 0;
  /// The server granted the transaction the page's write lock.
  bool page_write_locked = false;
};

/// Calls `fn(oid)` for every object of `page` whose slot is set in `mask`.
template <typename Fn>
void ForEachObject(const storage::ObjectLayout& layout, storage::PageId page,
                   storage::SlotMask mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) {
    fn(layout.ObjectAt(page, std::countr_zero(mask)));
  }
}

/// Read/write footprint of a client's active transaction, with its
/// server-granted write locks and its cache pins: one util::FlatMap entry
/// per page, so recording an access is one probe. Objects map to (page,
/// slot) through the run's ObjectLayout, which must not change while a
/// transaction runs (System applies every relocation before any client
/// starts). Clear() keeps the table's capacity, so a client records each
/// transaction's footprint without allocating once the table has grown to
/// its size.
class LocalTxnLocks {
 public:
  explicit LocalTxnLocks(const storage::ObjectLayout& layout)
      : layout_(&layout) {}

  /// Wires the optional event tracer (null when tracing is off): grants and
  /// revocations of server-granted write permissions then emit kLocalGrant /
  /// kLocalRevoke events tagged with the owning client. Client::BeginTxn
  /// stamps the current transaction with SetTxn.
  void AttachTracing(trace::Tracer* tracer, storage::ClientId client) {
    tracer_ = tracer;
    client_ = client;
  }
  void SetTxn(storage::TxnId txn) { txn_ = txn; }

  /// Empties the footprint (keeping the table's block) and re-arms
  /// ReleasePins for the next transaction.
  void Clear() {
    table_.clear();
    pins_released_ = false;
  }

  // --- Footprint (what the transaction has touched) -----------------------

  /// What an access found before RecordRead / RecordWrite marked it.
  struct Access {
    bool own_write;        ///< the transaction had written the object
    bool first_on_page;    ///< no object of the page had been read
    bool first_of_object;  ///< the object had not been read
  };

  /// Marks `oid` read. The cached copy is the read lock, so the caller pins
  /// it on first use: the page family a page on `first_on_page`, OS an
  /// object on `first_of_object`.
  Access RecordRead(storage::ObjectId oid) { return Record(oid, false); }
  /// Marks `oid` written (and read: a writer also reads).
  Access RecordWrite(storage::ObjectId oid) { return Record(oid, true); }

  bool ReadsObject(storage::ObjectId oid) const {
    const PageFootprint* fp = table_.find(layout_->PageOf(oid));
    return fp != nullptr && (fp->read & Bit(oid)) != 0;
  }
  bool WritesObject(storage::ObjectId oid) const {
    const PageFootprint* fp = table_.find(layout_->PageOf(oid));
    return fp != nullptr && (fp->written & Bit(oid)) != 0;
  }
  /// True if the transaction read (or wrote) an object of `page`.
  bool UsesPage(storage::PageId page) const {
    const PageFootprint* fp = table_.find(page);
    return fp != nullptr && fp->read != 0;
  }

  /// One entry per page the transaction accessed or holds a write lock on.
  /// Client::Commit and Client::Abort walk it for the write set (the pages
  /// with a `written` mask); no other record of what the transaction wrote
  /// exists at the client. Iterates in slot order: a loop whose effects
  /// depend on the order must sort first.
  const util::FlatMap<storage::PageId, PageFootprint>& footprint() const {
    return table_;
  }

  // --- Server-granted write permissions ------------------------------------

  void GrantPageWrite(storage::PageId page) {
    table_[page].page_write_locked = true;
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kLocalGrant, client_, txn_, page);
    }
  }
  void RevokePageWrite(storage::PageId page) {
    if (PageFootprint* fp = table_.find(page)) fp->page_write_locked = false;
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kLocalRevoke, client_, txn_, page);
    }
  }
  bool HasPageWrite(storage::PageId page) const {
    const PageFootprint* fp = table_.find(page);
    return fp != nullptr && fp->page_write_locked;
  }
  void GrantObjectWrite(storage::ObjectId oid) {
    table_[layout_->PageOf(oid)].write_locked |= Bit(oid);
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kLocalGrant, client_, txn_, -1, oid);
    }
  }
  bool HasObjectWrite(storage::ObjectId oid) const {
    const PageFootprint* fp = table_.find(layout_->PageOf(oid));
    return fp != nullptr && (fp->write_locked & Bit(oid)) != 0;
  }
  /// True if a page or an object write lock covers `oid`.
  bool HoldsWrite(storage::ObjectId oid) const {
    const PageFootprint* fp = table_.find(layout_->PageOf(oid));
    return fp != nullptr &&
           (fp->page_write_locked || (fp->write_locked & Bit(oid)) != 0);
  }

  // --- Cache pins ------------------------------------------------------------

  /// Returns true the first time it is called in a transaction, false after:
  /// the caller then unpins every item its accesses pinned (the read masks
  /// of footprint()), so unpinning twice (Abort, then EndTxnLocal) releases
  /// each pin once. No access may be recorded after it; Clear re-arms it.
  bool ReleasePins() {
    const bool first = !pins_released_;
    pins_released_ = true;
    return first;
  }

 private:
  storage::SlotMask Bit(storage::ObjectId oid) const {
    return storage::SlotBit(layout_->SlotOf(oid));
  }

  Access Record(storage::ObjectId oid, bool write) {
    PSOODB_DCHECK(!pins_released_,
                  "access to oid %lld recorded after the pins were released",
                  static_cast<long long>(oid));
    const storage::SlotMask bit = Bit(oid);
    PageFootprint& fp = table_[layout_->PageOf(oid)];
    const Access before{(fp.written & bit) != 0, fp.read == 0,
                        (fp.read & bit) == 0};
    fp.read |= bit;
    if (write) fp.written |= bit;
    return before;
  }

  const storage::ObjectLayout* layout_;
  trace::Tracer* tracer_ = nullptr;
  storage::ClientId client_ = storage::kNoClient;
  storage::TxnId txn_ = storage::kNoTxn;
  util::FlatMap<storage::PageId, PageFootprint> table_;
  bool pins_released_ = false;
};

}  // namespace psoodb::cc

#endif  // PSOODB_CC_LOCAL_LOCKS_H_
