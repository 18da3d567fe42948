#include "cc/lock_manager.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace psoodb::cc {

using storage::ClientId;
using storage::kNoClient;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::TxnId;

namespace {

/// Inserts `v` into sorted `list` unless present.
template <typename List, typename T>
void InsertSorted(List& list, T v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) return;
  list.insert(static_cast<std::size_t>(it - list.begin()), v);
}

/// Erases `v` from sorted `list` if present.
template <typename List, typename T>
void EraseSorted(List& list, T v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) {
    list.erase(static_cast<std::size_t>(it - list.begin()));
  }
}

}  // namespace

template <typename Key>
sim::Task LockManager::AcquireX(Table<Key>& table, Key key, PageId page,
                                TxnId txn, ClientId client, bool acquire) {
  constexpr bool kIsObject = !std::is_same_v<Key, PageId>;
  bool waited = false;
  // Entry time == first-block time: nothing suspends before the first
  // conflict check, so a blocked acquire's wait span starts here.
  const double wait_start = sim_.now();
  for (;;) {
    // A cross-partition deadlock coordinator may have marked this
    // transaction for abort while it was parked (partitioned runs only;
    // a no-op otherwise). Check on entry and after every wake, before the
    // holder re-check: a racing grant must not let a victim slip through.
    if (detector_.CheckVictim(txn)) {
      MaybeErase(table, key);
      if (waited) {
        RecordWaitEnd(kIsObject, static_cast<std::int64_t>(key), page, txn,
                      wait_start, /*granted=*/false);
      }
      co_await sim::EndAborted();
    }
    const std::uint32_t* found = table.index.find(key);
    const TxnId holder =
        found == nullptr ? kNoTxn : table.entries[*found].holder;
    if (holder == kNoTxn || holder == txn) {
      if (acquire && holder == kNoTxn) {
        const std::uint32_t slot =
            found == nullptr ? NewEntry(table, key) : *found;
        Grant(table, slot, key, page, txn, client);
      }
      // A wait on a free item leaves no entry behind (it creates none).
      if (!acquire && found != nullptr) MaybeErase(table, key);
      if (waited) {
        detector_.ClearWaits(txn);
        RecordWaitEnd(kIsObject, static_cast<std::int64_t>(key), page, txn,
                      wait_start, /*granted=*/true);
      }
      co_return;
    }
    // Conflict: register the wait edge (the detector may answer abort) and
    // block. The entry is held, so it stays in its slot for the whole wait.
    const std::uint32_t slot = *found;
    if (!waited && tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kLockWait, node_, txn, page,
                    kIsObject ? static_cast<std::int64_t>(key) : -1,
                    static_cast<std::int64_t>(holder));
    }
    ++lock_waits_;
    waited = true;
    if (detector_.OnWait(txn, {holder})) {
      detector_.ClearWaits(txn);
      MaybeErase(table, key);
      RecordWaitEnd(kIsObject, static_cast<std::int64_t>(key), page, txn,
                    wait_start, /*granted=*/false);
      co_await sim::EndAborted();
    }
    ++table.entries[slot].waiters;
    ++waiting_;
    {
      // Registered strictly for the duration of the wait so the detector
      // never holds a dangling CondVar pointer (cross-partition victim
      // pokes go through this channel).
      sim::CondVar& cv = table.entries[slot].cv;
      ScopedWaitChannel channel(detector_, txn, &cv);
      co_await cv.Wait();
    }
    --table.entries[slot].waiters;
    --waiting_;
    detector_.ClearWaits(txn);
  }
}

void LockManager::RecordWaitEnd(bool is_object, std::int64_t oid, PageId page,
                                TxnId txn, double wait_start, bool granted) {
  const double dt = sim_.now() - wait_start;
  if (lock_wait_hist_ != nullptr) lock_wait_hist_->Add(dt);
  if (tracer_ != nullptr) {
    tracer_->Attribute(txn, trace::Phase::kLockWait, dt);
    tracer_->EmitSpan(wait_start, dt,
                      granted ? trace::EventKind::kLockGrant
                              : trace::EventKind::kLockAbort,
                      node_, txn, page, is_object ? oid : -1);
  }
}

template <typename Key>
std::uint32_t LockManager::NewEntry(Table<Key>& table, Key key) {
  const std::uint32_t slot = table.entries.Acquire(sim_);
  const Entry& e = table.entries[slot];
  PSOODB_DCHECK(e.holder == kNoTxn && e.holder_client == kNoClient &&
                    e.waiters == 0,
                "recycled lock entry is not free");
  (void)e;
  table.index.emplace(key, slot);
  return slot;
}

template <typename Key>
void LockManager::Grant(Table<Key>& table, std::uint32_t slot, Key key,
                        PageId page, TxnId txn, ClientId client) {
  Entry& e = table.entries[slot];
  e.holder = txn;
  e.holder_client = client;
  Held& held = HeldFor(txn);
  if constexpr (std::is_same_v<Key, PageId>) {
    InsertSorted(held.pages, key);
  } else {
    InsertSorted(held.objects, key);
    e.page = page;
    std::uint32_t list;
    if (const std::uint32_t* p = page_objects_index_.find(page)) {
      list = *p;
    } else {
      list = page_objects_.Acquire();  // recycled lists are empty
      page_objects_index_.emplace(page, list);
    }
    InsertSorted(page_objects_[list], key);
  }
}

template <typename Key>
void LockManager::Unlock(Table<Key>& table, std::uint32_t slot, Key key) {
  Entry& e = table.entries[slot];
  if constexpr (!std::is_same_v<Key, PageId>) {
    const std::uint32_t list = *page_objects_index_.find(e.page);
    auto& oids = page_objects_[list];
    EraseSorted(oids, key);
    if (oids.empty()) {
      page_objects_index_.erase(e.page);
      page_objects_.Release(list);
    }
  }
  e.holder = kNoTxn;
  e.holder_client = kNoClient;
  e.cv.NotifyAll();
  if (e.waiters == 0) {
    table.index.erase(key);
    table.entries.Release(slot);
  }
}

template <typename Key>
void LockManager::ReleaseX(Table<Key>& table, Key key, TxnId txn) {
  const std::uint32_t* found = table.index.find(key);
  if (found == nullptr || table.entries[*found].holder != txn) return;
  Unlock(table, *found, key);
  Unhold(txn, key);
}

template <typename Key>
void LockManager::MaybeErase(Table<Key>& table, Key key) {
  const std::uint32_t* found = table.index.find(key);
  if (found == nullptr) return;
  const std::uint32_t slot = *found;
  const Entry& e = table.entries[slot];
  if (e.holder == kNoTxn && e.waiters == 0) {
    table.index.erase(key);
    table.entries.Release(slot);
  }
}

template <typename Key>
const LockManager::Entry* LockManager::Lookup(const Table<Key>& table,
                                              Key key) {
  const std::uint32_t* found = table.index.find(key);
  return found == nullptr ? nullptr : &table.entries[*found];
}

LockManager::Held& LockManager::HeldFor(TxnId txn) {
  if (const std::uint32_t* p = held_index_.find(txn)) return held_[*p];
  const std::uint32_t slot = held_.Acquire();  // recycled lists are empty
  held_index_.emplace(txn, slot);
  return held_[slot];
}

template <typename Key>
void LockManager::Unhold(TxnId txn, Key key) {
  const std::uint32_t* p = held_index_.find(txn);
  if (p == nullptr) return;
  const std::uint32_t slot = *p;
  Held& held = held_[slot];
  if constexpr (std::is_same_v<Key, PageId>) {
    EraseSorted(held.pages, key);
  } else {
    EraseSorted(held.objects, key);
  }
  if (held.pages.empty() && held.objects.empty()) {
    held_index_.erase(txn);
    held_.Release(slot);
  }
}

sim::Task LockManager::AcquirePageX(PageId page, TxnId txn, ClientId client) {
  return AcquireX(pages_, page, page, txn, client, /*acquire=*/true);
}

sim::Task LockManager::WaitPageFree(PageId page, TxnId txn) {
  return AcquireX(pages_, page, page, txn, kNoClient, /*acquire=*/false);
}

void LockManager::ReleasePageX(PageId page, TxnId txn) {
  ReleaseX(pages_, page, txn);
}

TxnId LockManager::PageXHolder(PageId page) const {
  const Entry* e = Lookup(pages_, page);
  return e == nullptr ? kNoTxn : e->holder;
}

ClientId LockManager::PageXHolderClient(PageId page) const {
  const Entry* e = Lookup(pages_, page);
  return e == nullptr ? kNoClient : e->holder_client;
}

sim::Task LockManager::AcquireObjectX(ObjectId oid, PageId page, TxnId txn,
                                      ClientId client) {
  return AcquireX(objects_, oid, page, txn, client, /*acquire=*/true);
}

sim::Task LockManager::WaitObjectFree(ObjectId oid, PageId page, TxnId txn) {
  return AcquireX(objects_, oid, page, txn, kNoClient, /*acquire=*/false);
}

void LockManager::GrantObjectXDirect(ObjectId oid, PageId page, TxnId txn,
                                     ClientId client) {
  const std::uint32_t* found = objects_.index.find(oid);
  const TxnId holder =
      found == nullptr ? kNoTxn : objects_.entries[*found].holder;
  PSOODB_CHECK(holder == kNoTxn || holder == txn,
               "direct object grant over a conflicting holder (oid %lld)",
               static_cast<long long>(oid));
  if (holder == txn) return;
  const std::uint32_t slot = found == nullptr ? NewEntry(objects_, oid)
                                              : *found;
  Grant(objects_, slot, oid, page, txn, client);
}

void LockManager::ReleaseObjectX(ObjectId oid, TxnId txn) {
  ReleaseX(objects_, oid, txn);
}

TxnId LockManager::ObjectXHolder(ObjectId oid) const {
  const Entry* e = Lookup(objects_, oid);
  return e == nullptr ? kNoTxn : e->holder;
}

ClientId LockManager::ObjectXHolderClient(ObjectId oid) const {
  const Entry* e = Lookup(objects_, oid);
  return e == nullptr ? kNoClient : e->holder_client;
}

storage::SlotMask LockManager::OtherObjectLockMask(
    PageId page, TxnId txn, const storage::ObjectLayout& layout) const {
  storage::SlotMask mask = 0;
  const std::uint32_t* list = page_objects_index_.find(page);
  if (list == nullptr) return mask;
  for (ObjectId oid : page_objects_[*list]) {
    if (ObjectXHolder(oid) != txn) mask |= storage::SlotBit(layout.SlotOf(oid));
  }
  return mask;
}

int LockManager::ReleaseAll(TxnId txn) {
  int released = 0;
  if (const std::uint32_t* p = held_index_.find(txn)) {
    const std::uint32_t slot = *p;
    Held& held = held_[slot];
    // Release order decides the order waiters are woken in: pages, then
    // objects, each by id (the lists are sorted).
    for (PageId page : held.pages) {
      Unlock(pages_, *pages_.index.find(page), page);
    }
    for (ObjectId oid : held.objects) {
      Unlock(objects_, *objects_.index.find(oid), oid);
    }
    released = static_cast<int>(held.pages.size() + held.objects.size());
    held.pages.clear();
    held.objects.clear();
    held_index_.erase(txn);
    held_.Release(slot);
  }
  detector_.RemoveTxn(txn);
  if (tracer_ != nullptr && released > 0) {
    tracer_->Emit(trace::EventKind::kLockRelease, node_, txn, -1, released);
  }
  return released;
}

std::size_t LockManager::PagesHeldBy(TxnId txn) const {
  const std::uint32_t* p = held_index_.find(txn);
  return p == nullptr ? 0 : held_[*p].pages.size();
}

std::size_t LockManager::ObjectsHeldBy(TxnId txn) const {
  const std::uint32_t* p = held_index_.find(txn);
  return p == nullptr ? 0 : held_[*p].objects.size();
}

std::vector<std::string> LockManager::CheckCoherence() const {
  std::vector<std::string> out;
  char buf[192];
  auto fail = [&out, &buf](int n) {
    (void)n;
    out.emplace_back(buf);
  };
  const auto held_by = [this](TxnId txn) -> const Held* {
    const std::uint32_t* p = held_index_.find(txn);
    return p == nullptr ? nullptr : &held_[*p];
  };
  const auto listed = [](const auto& list, auto v) {
    return std::binary_search(list.begin(), list.end(), v);
  };
  const auto sorted = [](const auto& list) {
    return std::adjacent_find(list.begin(), list.end(),
                              [](auto a, auto b) { return a >= b; }) ==
           list.end();
  };

  // Lock tables vs. the per-txn held lists.
  for (const auto& [page, slot] : pages_.index) {  // det-ok: diagnostic sweep; empty in healthy runs, never feeds the sim
    const Entry& e = pages_.entries[slot];
    if (e.holder == kNoTxn) {
      if (e.holder_client != kNoClient) {
        fail(std::snprintf(buf, sizeof buf,
                           "free page lock %d keeps holder client %d",
                           page, e.holder_client));
      }
      if (e.waiters == 0) {
        fail(std::snprintf(buf, sizeof buf,
                           "free page lock %d with no waiters was kept",
                           page));
      }
      continue;
    }
    if (e.holder_client == kNoClient) {
      fail(std::snprintf(buf, sizeof buf,
                         "page lock %d held by txn %llu with no client",
                         page, static_cast<unsigned long long>(e.holder)));
    }
    const Held* held = held_by(e.holder);
    if (held == nullptr || !listed(held->pages, page)) {
      fail(std::snprintf(buf, sizeof buf,
                         "page lock %d held by txn %llu missing from its "
                         "held list",
                         page, static_cast<unsigned long long>(e.holder)));
    }
  }
  for (const auto& [oid, slot] : objects_.index) {  // det-ok: diagnostic sweep; empty in healthy runs, never feeds the sim
    const Entry& e = objects_.entries[slot];
    if (e.holder == kNoTxn) {
      if (e.holder_client != kNoClient) {
        fail(std::snprintf(buf, sizeof buf,
                           "free object lock %lld keeps holder client %d",
                           static_cast<long long>(oid), e.holder_client));
      }
      if (e.waiters == 0) {
        fail(std::snprintf(buf, sizeof buf,
                           "free object lock %lld with no waiters was kept",
                           static_cast<long long>(oid)));
      }
      continue;
    }
    if (e.holder_client == kNoClient) {
      fail(std::snprintf(buf, sizeof buf,
                         "object lock %lld held by txn %llu with no client",
                         static_cast<long long>(oid),
                         static_cast<unsigned long long>(e.holder)));
    }
    const Held* held = held_by(e.holder);
    if (held == nullptr || !listed(held->objects, oid)) {
      fail(std::snprintf(buf, sizeof buf,
                         "object lock %lld held by txn %llu missing from its "
                         "held list",
                         static_cast<long long>(oid),
                         static_cast<unsigned long long>(e.holder)));
    }
    // Every held object lock must be indexed for the PS-AA page scans.
    const std::uint32_t* list = page_objects_index_.find(e.page);
    if (list == nullptr || !listed(page_objects_[*list], oid)) {
      fail(std::snprintf(buf, sizeof buf,
                         "held object lock %lld missing from the per-page "
                         "index of page %d",
                         static_cast<long long>(oid), e.page));
    }
  }
  for (const auto& [txn, slot] : held_index_) {  // det-ok: diagnostic sweep; empty in healthy runs, never feeds the sim
    const Held& held = held_[slot];
    if (held.pages.empty() && held.objects.empty()) {
      fail(std::snprintf(buf, sizeof buf, "empty held lists for txn %llu",
                         static_cast<unsigned long long>(txn)));
    }
    if (!sorted(held.pages) || !sorted(held.objects)) {
      fail(std::snprintf(buf, sizeof buf, "unsorted held list for txn %llu",
                         static_cast<unsigned long long>(txn)));
    }
    for (PageId p : held.pages) {
      if (PageXHolder(p) != txn) {
        fail(std::snprintf(buf, sizeof buf,
                           "held list says txn %llu holds page %d but the "
                           "lock table disagrees",
                           static_cast<unsigned long long>(txn), p));
      }
    }
    for (ObjectId o : held.objects) {
      if (ObjectXHolder(o) != txn) {
        fail(std::snprintf(buf, sizeof buf,
                           "held list says txn %llu holds object %lld but "
                           "the lock table disagrees",
                           static_cast<unsigned long long>(txn),
                           static_cast<long long>(o)));
      }
    }
  }

  // Per-page object-lock index vs. the object table.
  for (const auto& [page, slot] : page_objects_index_) {  // det-ok: diagnostic sweep; empty in healthy runs, never feeds the sim
    const auto& oids = page_objects_[slot];
    if (oids.empty() || !sorted(oids)) {
      fail(std::snprintf(buf, sizeof buf,
                         "empty or unsorted per-page object-lock index entry "
                         "for page %d",
                         page));
    }
    for (ObjectId o : oids) {
      const Entry* e = Lookup(objects_, o);
      if (e == nullptr || e->holder == kNoTxn || e->page != page) {
        fail(std::snprintf(buf, sizeof buf,
                           "per-page index of page %d lists object %lld, "
                           "which is not held on that page",
                           page, static_cast<long long>(o)));
      }
    }
  }
  return out;
}

}  // namespace psoodb::cc
