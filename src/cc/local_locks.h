/// \file local_locks.h
/// Client-side lock state for the (single) active transaction at a client.
/// Under Callback Locking, read locks are managed locally: reading a cached
/// item records it here, and incoming callbacks test for conflicts against
/// these sets. PS-AA additionally records both granularities so locks can be
/// de-escalated (Section 3.3.3).

#ifndef PSOODB_CC_LOCAL_LOCKS_H_
#define PSOODB_CC_LOCAL_LOCKS_H_

#include "storage/types.h"
#include "trace/trace.h"
#include "util/flat_set.h"

namespace psoodb::cc {

/// Read/write footprint of a client's active transaction. The tables are
/// util::FlatSets: Clear() keeps their capacity, so a client records each
/// transaction's footprint without allocating once the tables have grown
/// to its size.
class LocalTxnLocks {
 public:
  /// Wires the optional event tracer (null when tracing is off): grants and
  /// revocations of server-granted write permissions then emit kLocalGrant /
  /// kLocalRevoke events tagged with the owning client. Client::BeginTxn
  /// stamps the current transaction with SetTxn.
  void AttachTracing(trace::Tracer* tracer, storage::ClientId client) {
    tracer_ = tracer;
    client_ = client;
  }
  void SetTxn(storage::TxnId txn) { txn_ = txn; }

  void Clear() {
    read_objects_.clear();
    write_objects_.clear();
    read_pages_.clear();
    write_pages_.clear();
    page_write_locks_.clear();
    object_write_locks_.clear();
  }

  // --- Footprint (what the transaction has touched) -----------------------

  void RecordRead(storage::ObjectId oid, storage::PageId page) {
    read_objects_.insert(oid);
    read_pages_.insert(page);
  }
  void RecordWrite(storage::ObjectId oid, storage::PageId page) {
    write_objects_.insert(oid);
    write_pages_.insert(page);
    // A writer also reads.
    read_objects_.insert(oid);
    read_pages_.insert(page);
  }

  bool ReadsObject(storage::ObjectId oid) const {
    return read_objects_.count(oid) > 0;
  }
  bool WritesObject(storage::ObjectId oid) const {
    return write_objects_.count(oid) > 0;
  }
  bool UsesPage(storage::PageId page) const {
    return read_pages_.count(page) > 0 || write_pages_.count(page) > 0;
  }

  const util::FlatSet<storage::ObjectId>& read_objects() const {
    return read_objects_;
  }
  const util::FlatSet<storage::ObjectId>& write_objects() const {
    return write_objects_;
  }
  const util::FlatSet<storage::PageId>& read_pages() const {
    return read_pages_;
  }
  const util::FlatSet<storage::PageId>& write_pages() const {
    return write_pages_;
  }

  // --- Server-granted write permissions ------------------------------------

  void GrantPageWrite(storage::PageId page) {
    page_write_locks_.insert(page);
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kLocalGrant, client_, txn_, page);
    }
  }
  void RevokePageWrite(storage::PageId page) {
    page_write_locks_.erase(page);
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kLocalRevoke, client_, txn_, page);
    }
  }
  bool HasPageWrite(storage::PageId page) const {
    return page_write_locks_.count(page) > 0;
  }
  void GrantObjectWrite(storage::ObjectId oid) {
    object_write_locks_.insert(oid);
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kLocalGrant, client_, txn_, -1, oid);
    }
  }
  bool HasObjectWrite(storage::ObjectId oid) const {
    return object_write_locks_.count(oid) > 0;
  }
  const util::FlatSet<storage::PageId>& page_write_locks() const {
    return page_write_locks_;
  }
  const util::FlatSet<storage::ObjectId>& object_write_locks() const {
    return object_write_locks_;
  }

 private:
  trace::Tracer* tracer_ = nullptr;
  storage::ClientId client_ = storage::kNoClient;
  storage::TxnId txn_ = storage::kNoTxn;
  util::FlatSet<storage::ObjectId> read_objects_;
  util::FlatSet<storage::ObjectId> write_objects_;
  util::FlatSet<storage::PageId> read_pages_;
  util::FlatSet<storage::PageId> write_pages_;
  /// Pages on which the server granted this transaction a page write lock.
  util::FlatSet<storage::PageId> page_write_locks_;
  /// Objects on which the server granted this transaction an object X lock.
  util::FlatSet<storage::ObjectId> object_write_locks_;
};

}  // namespace psoodb::cc

#endif  // PSOODB_CC_LOCAL_LOCKS_H_
