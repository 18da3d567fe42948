#include "cc/deadlock_detector.h"

#include <algorithm>
#include <utility>

namespace psoodb::cc {

namespace {

/// Index of `t` in the sorted list, or the insertion position.
std::size_t LowerBound(const util::SmallVector<storage::TxnId, 8>& v,
                       storage::TxnId t) {
  return static_cast<std::size_t>(
      std::lower_bound(v.begin(), v.end(), t) - v.begin());
}

}  // namespace

bool DeadlockDetector::OnWait(storage::TxnId waiter,
                              std::span<const storage::TxnId> holders) {
  if (CheckVictim(waiter)) return true;
  const std::uint32_t* found = out_index_.find(waiter);
  std::uint32_t slot = found == nullptr ? util::kNoSlot : *found;
  EdgeList added;
  for (storage::TxnId h : holders) {
    if (h == waiter || h == storage::kNoTxn) continue;
    if (slot == util::kNoSlot) {
      slot = edge_lists_.Acquire();  // recycled lists are empty
      out_index_.emplace(waiter, slot);
    }
    EdgeList& out = edge_lists_[slot];
    const std::size_t pos = LowerBound(out, h);
    if (pos < out.size() && out[pos] == h) continue;  // duplicate holder
    out.insert(pos, h);
    added.push_back(h);
  }
  edges_ += added.size();
  if (HasCycleFrom(waiter)) {
    EdgeList& out = edge_lists_[slot];  // a cycle needs an edge from waiter
    for (storage::TxnId h : added) out.erase(LowerBound(out, h));
    edges_ -= added.size();
    if (out.empty()) DropOutEdges(waiter, slot);
    ++deadlocks_;
    // The rollback leaves the edge set exactly as before the call, so the
    // delta log (written only below, on success) never sees the round trip.
    return true;
  }
  for (storage::TxnId h : added) LogDelta(waiter, h, /*add=*/true);
  return false;
}

void DeadlockDetector::ClearWaits(storage::TxnId waiter) {
  const std::uint32_t* found = out_index_.find(waiter);
  if (found == nullptr) return;
  const std::uint32_t slot = *found;
  const EdgeList& out = edge_lists_[slot];
  edges_ -= out.size();
  for (storage::TxnId t : out) LogDelta(waiter, t, /*add=*/false);
  DropOutEdges(waiter, slot);
}

void DeadlockDetector::RemoveTxn(storage::TxnId txn) {
  ClearWaits(txn);
  // Incoming edges: scan every waiter's sorted list for `txn`. Collect the
  // affected waiters first so the delta log stays in sorted order rather
  // than hash order (removals commute in the coordinator fold, but a
  // deterministic log is simpler to reason about and to test), and so the
  // index is not erased from while it is iterated.
  incoming_.clear();
  for (const auto& [waiter, slot] : out_index_) {  // det-ok: sorted below before any ordered use
    EdgeList& targets = edge_lists_[slot];
    const std::size_t pos = LowerBound(targets, txn);
    if (pos < targets.size() && targets[pos] == txn) {
      targets.erase(pos);
      --edges_;
      incoming_.push_back(waiter);
    }
  }
  std::sort(incoming_.begin(), incoming_.end());
  for (storage::TxnId w : incoming_) {
    LogDelta(w, txn, /*add=*/false);
    const std::uint32_t slot = *out_index_.find(w);
    if (edge_lists_[slot].empty()) DropOutEdges(w, slot);
  }
  victims_.erase(txn);
  wait_channels_.erase(txn);
}

void DeadlockDetector::DrainDeltas(std::vector<EdgeDelta>* out) {
  out->insert(out->end(), delta_log_.begin(), delta_log_.end());
  delta_log_.clear();
}

void DeadlockDetector::MarkVictim(storage::TxnId txn) {
  if (victims_.insert(txn)) ++deadlocks_;
}

bool DeadlockDetector::CheckVictim(storage::TxnId txn) {
  // Hot path: no pending cross-partition abort.
  return !victims_.empty() && victims_.erase(txn) != 0;
}

void DeadlockDetector::RegisterWaitChannel(storage::TxnId txn,
                                           sim::CondVar* cv) {
  if (sim::CondVar** p = wait_channels_.find(txn)) {
    *p = cv;
  } else {
    wait_channels_.emplace(txn, cv);
  }
}

void DeadlockDetector::UnregisterWaitChannel(storage::TxnId txn,
                                             sim::CondVar* cv) {
  sim::CondVar* const* p = wait_channels_.find(txn);
  if (p != nullptr && *p == cv) wait_channels_.erase(txn);
}

sim::CondVar* DeadlockDetector::WaitChannel(storage::TxnId txn) const {
  sim::CondVar* const* p = wait_channels_.find(txn);
  return p != nullptr ? *p : nullptr;
}

bool DeadlockDetector::HasCycleFrom(storage::TxnId txn) const {
  // Iterative DFS over out-edges looking for a path back to `txn`.
  visited_.clear();
  stack_.clear();
  auto push_targets = [this, txn](storage::TxnId from) {
    const EdgeList* out = OutEdges(from);
    if (out == nullptr) return;
    for (storage::TxnId t : *out) {
      if (t == txn) stack_.push_back(t);  // found a way back; handled below
      if (visited_.insert(t)) stack_.push_back(t);
    }
  };
  push_targets(txn);
  while (!stack_.empty()) {
    storage::TxnId cur = stack_.back();
    stack_.pop_back();
    if (cur == txn) return true;
    push_targets(cur);
  }
  return false;
}

std::vector<std::pair<storage::TxnId, storage::TxnId>>
DeadlockDetector::Edges() const {
  std::vector<std::pair<storage::TxnId, storage::TxnId>> out;
  out.reserve(edge_count());
  for (const auto& [waiter, slot] : out_index_) {    // det-ok: sorted below
    for (storage::TxnId t : edge_lists_[slot]) out.emplace_back(waiter, t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace psoodb::cc
