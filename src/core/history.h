/// \file history.h
/// Committed-transaction history recording and conflict-serializability
/// checking. Used by integration tests to verify that every protocol
/// produces serializable executions, and that no update is ever lost when
/// concurrently updated page copies are merged.

#ifndef PSOODB_CORE_HISTORY_H_
#define PSOODB_CORE_HISTORY_H_

#include <map>
#include <unordered_map>
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

  std::size_t size() const { return txns_.size(); }
  const std::vector<CommittedTxn>& txns() const { return txns_; }

  /// Builds the conflict graph (ww, wr, rw edges derived from per-object
  /// version order) and returns true iff it is acyclic.
  bool IsSerializable() const;

  /// True iff committed versions of every object form the contiguous
  /// sequence 1..n with exactly one writer each (no lost updates, no
  /// duplicated installs).
  bool NoLostUpdates() const;

 private:
  std::vector<CommittedTxn> txns_;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_HISTORY_H_
