/// \file copy_table.h
/// Server-side replica (cached-copy) tracking. PS, PS-OA and PS-AA track
/// copies at page granularity; OS, PS-OO and PS-WT track them at object
/// granularity (Section 3.3). The registration/unregistration CPU cost
/// (RegisterCopyInst) is charged by the caller.
///
/// Registrations carry an *epoch*: a callback handler snapshots the epoch of
/// each holder when it issues callbacks, and a purge acknowledgment only
/// unregisters that epoch. This closes a race where a callback crosses an
/// in-flight ship to the same client — the client purges its old copy (and
/// acks "purged") just before receiving a fresh copy; unregistering
/// unconditionally would erase the fresh copy's registration and the client
/// would silently miss all future callbacks for the item.
///
/// Per-item holder lists are kept sorted by client in inline-capacity
/// vectors: sharing degrees in the modeled workloads are tiny (HOTCOLD and
/// HICON rarely exceed a handful of concurrent holders), so linear probes
/// beat a per-item hash table, and the callback fan-out order falls directly
/// out of the stored order with no per-call sort. The lists live on a
/// util::Slab indexed by a util::FlatMap; a list emptied by its last
/// unregistration goes back to the slab's free list with its capacity, so
/// registration churn allocates nothing.

#ifndef PSOODB_CC_COPY_TABLE_H_
#define PSOODB_CC_COPY_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "storage/types.h"
#include "util/annotations.h"
#include "util/flat_set.h"
#include "util/slab.h"
#include "util/small_vector.h"

namespace psoodb::cc {

/// One registered copy holder, with the registration epoch.
struct CopyHolder {
  storage::ClientId client;
  std::uint64_t epoch;
};

/// The holders of one item except one client, in client order: a view of
/// the stored list, valid until the table next changes (snapshot it before
/// anything can register or unregister).
class HolderRange {
 public:
  HolderRange() = default;
  HolderRange(const CopyHolder* data, std::size_t n, std::size_t hole)
      : data_(data), n_(n), hole_(hole) {}

  std::size_t size() const { return hole_ < n_ ? n_ - 1 : n_; }
  bool empty() const { return size() == 0; }
  const CopyHolder& operator[](std::size_t i) const {
    return data_[i < hole_ ? i : i + 1];
  }

  class iterator {
   public:
    iterator(const HolderRange* r, std::size_t i) : r_(r), i_(i) {}
    const CopyHolder& operator*() const { return (*r_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const HolderRange* r_;
    std::size_t i_;
  };
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, size()); }

 private:
  const CopyHolder* data_ = nullptr;
  std::size_t n_ = 0;
  std::size_t hole_ = 0;  ///< position of the excluded client, or >= n_
};

/// Tracks which clients cache a copy of each item (page or object).
template <typename ItemId>
class CopyTable {
 public:
  using Holder = CopyHolder;

  /// Registers that `client` holds a (new) copy of `item`. Re-registering
  /// bumps the epoch: the copy now on the wire supersedes older ones.
  void Register(ItemId item, storage::ClientId client) PSOODB_ACQUIRES(copy) {
    std::uint32_t slot;
    if (const std::uint32_t* p = index_.find(item)) {
      slot = *p;
    } else {
      slot = lists_.Acquire();  // a recycled list was emptied on release
      index_.emplace(item, slot);
    }
    HolderList& holders = lists_[slot];
    std::size_t i = 0;
    while (i < holders.size() && holders[i].client < client) ++i;
    if (i < holders.size() && holders[i].client == client) {
      holders[i].epoch = ++epoch_counter_;
    } else {
      holders.insert(i, Holder{client, ++epoch_counter_});
    }
    ++registrations_;
  }

  /// Unconditionally removes `client`'s registration (client-initiated
  /// drops: eviction notices, abort purges). No-op if absent.
  void Unregister(ItemId item, storage::ClientId client)
      PSOODB_RELEASES(copy) {
    const std::uint32_t* p = index_.find(item);
    if (p == nullptr) return;
    const std::uint32_t slot = *p;
    const HolderList& holders = lists_[slot];
    for (std::size_t i = 0; i < holders.size(); ++i) {
      if (holders[i].client == client) {
        Drop(item, slot, i);
        return;
      }
    }
  }

  /// Removes `client`'s registration only if it still has the given epoch
  /// (callback acknowledgments). Returns true if removed.
  bool UnregisterIfEpoch(ItemId item, storage::ClientId client,
                         std::uint64_t epoch) PSOODB_RELEASES(copy) {
    const std::uint32_t* p = index_.find(item);
    if (p == nullptr) return false;
    const std::uint32_t slot = *p;
    const HolderList& holders = lists_[slot];
    for (std::size_t i = 0; i < holders.size(); ++i) {
      if (holders[i].client == client) {
        if (holders[i].epoch != epoch) return false;
        Drop(item, slot, i);
        return true;
      }
    }
    return false;
  }

  bool Holds(ItemId item, storage::ClientId client) const {
    const std::uint32_t* p = index_.find(item);
    if (p == nullptr) return false;
    for (const Holder& h : lists_[*p]) {
      if (h.client == client) return true;
    }
    return false;
  }

  /// All holders of `item` except `except`, with their current epochs.
  /// Ordered by client id (the stored order), so callback fan-out — and
  /// hence the wire order — is a function of the sharing state alone.
  HolderRange HoldersExcept(ItemId item, storage::ClientId except) const {
    const std::uint32_t* p = index_.find(item);
    if (p == nullptr) return HolderRange();
    const HolderList& holders = lists_[*p];
    std::size_t hole = 0;
    while (hole < holders.size() && holders[hole].client != except) ++hole;
    return HolderRange(holders.begin(), holders.size(), hole);
  }

  int HolderCount(ItemId item) const {
    const std::uint32_t* p = index_.find(item);
    return p == nullptr ? 0 : static_cast<int>(lists_[*p].size());
  }

  std::size_t items_tracked() const { return index_.size(); }
  std::uint64_t registrations() const { return registrations_; }
  std::uint64_t unregistrations() const { return unregistrations_; }

 private:
  /// Sorted by client; inline capacity covers typical sharing degrees.
  using HolderList = util::SmallVector<Holder, 4>;

  /// Removes holder `i` of the list in `slot`; an emptied list leaves the
  /// index and returns to the slab (empty, so the next item starts empty).
  void Drop(ItemId item, std::uint32_t slot, std::size_t i) {
    HolderList& holders = lists_[slot];
    holders.erase(i);
    ++unregistrations_;
    if (holders.empty()) {
      index_.erase(item);
      lists_.Release(slot);
    }
  }

  util::FlatMap<ItemId, std::uint32_t> index_;  ///< item -> slot in lists_
  util::Slab<HolderList> lists_;
  std::uint64_t epoch_counter_ = 0;
  std::uint64_t registrations_ = 0;
  std::uint64_t unregistrations_ = 0;
};

using PageCopyTable = CopyTable<storage::PageId>;
using ObjectCopyTable = CopyTable<storage::ObjectId>;

}  // namespace psoodb::cc

#endif  // PSOODB_CC_COPY_TABLE_H_
