/// \file history.h
/// Committed-transaction history recording and conflict-serializability
/// checking. Used by integration tests to verify that every protocol
/// produces serializable executions, and that no update is ever lost when
/// concurrently updated page copies are merged.

#ifndef PSOODB_CORE_HISTORY_H_
#define PSOODB_CORE_HISTORY_H_

#include <string>
#include <vector>

#include "storage/types.h"

namespace psoodb::core {

/// Footprint of one committed transaction.
struct CommittedTxn {
  storage::TxnId txn = storage::kNoTxn;
  /// Object -> committed version observed at (first) read. Reads of the
  /// transaction's own writes are not recorded (they create no cross-
  /// transaction conflict edges).
  std::vector<std::pair<storage::ObjectId, storage::Version>> reads;
  /// Object -> new version installed at commit.
  std::vector<std::pair<storage::ObjectId, storage::Version>> writes;
};

/// Records commits and checks conflict-serializability of the history.
class History {
 public:
  void RecordCommit(CommittedTxn txn) { txns_.push_back(std::move(txn)); }

  /// Moves `other`'s commits to the end of this record.
  void Append(History&& other);

  std::size_t size() const { return txns_.size(); }
  const std::vector<CommittedTxn>& txns() const { return txns_; }

  /// Builds the conflict graph (ww, wr, rw edges derived from per-object
  /// version order) and returns true iff it is acyclic. When it is not and
  /// `why` is non-null, writes one cycle's txn ids into it, in edge order:
  /// "conflict cycle: txn 1 -> txn 2 -> txn 1".
  bool IsSerializable(std::string* why = nullptr) const;

  /// True iff committed versions of every object form the contiguous
  /// sequence 1..n with exactly one writer each (no lost updates, no
  /// duplicated installs). When false and `why` is non-null, writes the
  /// first violation in (object, version) order into it: "object 7:
  /// version 1 then 3" for a gap, "object 7: version 1 installed twice"
  /// for a duplicate.
  bool NoLostUpdates(std::string* why = nullptr) const;

 private:
  std::vector<CommittedTxn> txns_;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_HISTORY_H_
