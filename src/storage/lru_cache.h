/// \file lru_cache.h
/// Generic LRU cache with pinning and caller-handled eviction, used for both
/// the page caches (clients of the page-server family, and the server) and
/// the object cache (object-server clients). Eviction of an entry may require
/// protocol work (write a dirty page to disk, ship it to the server, notify
/// the server that a copy was dropped), so victims are returned to the caller
/// rather than silently discarded.
///
/// Entries live on a util::Slab (they never move, so a Value* stays valid
/// until its entry is evicted or removed) and are indexed by a
/// util::FlatMap; recency is a doubly linked list of slot numbers threaded
/// through the entries. Nothing here allocates per entry.

#ifndef PSOODB_STORAGE_LRU_CACHE_H_
#define PSOODB_STORAGE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>
#include "util/annotations.h"
#include "util/check.h"
#include "util/flat_set.h"
#include "util/slab.h"

namespace psoodb::storage {

template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    PSOODB_CHECK(capacity > 0, "LruCache needs nonzero capacity");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool Contains(const Key& k) const { return Find(k) != kNil; }

  /// Returns the cached value and marks it most-recently-used, or nullptr.
  Value* Get(const Key& k) {
    const std::uint32_t n = Find(k);
    if (n == kNil) return nullptr;
    MoveToFront(n);
    return &nodes_[n].value;
  }

  /// Returns the cached value without touching recency, or nullptr.
  Value* Peek(const Key& k) {
    const std::uint32_t n = Find(k);
    return n == kNil ? nullptr : &nodes_[n].value;
  }
  const Value* Peek(const Key& k) const {
    const std::uint32_t n = Find(k);
    return n == kNil ? nullptr : &nodes_[n].value;
  }

  struct InsertResult {
    Value* value = nullptr;  ///< the (possibly pre-existing) entry
    bool inserted = false;   ///< false if the key was already present
    /// Entry evicted to make room, if any. The caller must perform whatever
    /// protocol work the eviction implies.
    std::optional<std::pair<Key, Value>> evicted;
  };

  /// Inserts `k` (default-constructed value) as most-recently-used. If the
  /// cache is full, evicts the least-recently-used unpinned entry.
  /// Precondition: if full, at least one entry must be unpinned.
  InsertResult Insert(const Key& k) {
    InsertResult r;
    if (const std::uint32_t n = Find(k); n != kNil) {
      MoveToFront(n);
      r.value = &nodes_[n].value;
      return r;
    }
    if (index_.size() >= capacity_) r.evicted = EvictOne();
    const std::uint32_t n = nodes_.Acquire();
    Node& node = nodes_[n];
    node.key = k;
    node.pins = 0;
    node.value = Value{};  // a recycled slot holds its last, moved-from value
    LinkFront(n);
    index_.emplace(k, n);
    memo_key_ = k;
    memo_slot_ = n;
    r.value = &node.value;
    r.inserted = true;
    return r;
  }

  /// Removes `k`; returns the removed value if it was present.
  std::optional<Value> Remove(const Key& k) {
    const std::uint32_t n = Find(k);
    if (n == kNil) return std::nullopt;
    PSOODB_CHECK(nodes_[n].pins == 0, "removing a pinned entry");
    std::optional<Value> v(std::move(nodes_[n].value));
    Erase(n);
    return v;
  }

  /// Pins an entry, excluding it from eviction. Pins nest.
  void Pin(const Key& k) PSOODB_ACQUIRES(pin) {
    const std::uint32_t n = Find(k);
    PSOODB_DCHECK(n != kNil, "pinning an uncached key");
    ++nodes_[n].pins;
  }
  void Unpin(const Key& k) PSOODB_RELEASES(pin) {
    const std::uint32_t n = Find(k);
    PSOODB_DCHECK(n != kNil, "unpinning an uncached key");
    PSOODB_DCHECK(nodes_[n].pins > 0, "unpin without matching pin");
    --nodes_[n].pins;
  }
  int pins(const Key& k) const {
    const std::uint32_t n = Find(k);
    return n == kNil ? 0 : static_cast<int>(nodes_[n].pins);
  }

  /// Calls `fn(key, value)` for every entry, in MRU-to-LRU order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) {
      fn(nodes_[n].key, nodes_[n].value);
    }
  }

 private:
  static constexpr std::uint32_t kNil = util::kNoSlot;

  struct Node {
    Key key{};
    std::uint32_t prev = kNil;  ///< toward the MRU end
    std::uint32_t next = kNil;  ///< toward the LRU end
    unsigned pins = 0;
    Value value{};
  };

  /// Slot of `k`, or kNil. A one-entry memo serves consecutive operations
  /// on the same key (the dominant access pattern — a Contains/Get/Pin run
  /// against one page) without a probe; Erase clears it.
  std::uint32_t Find(const Key& k) const {
    if (memo_slot_ != kNil && memo_key_ == k) return memo_slot_;
    const std::uint32_t* n = index_.find(k);
    if (n == nullptr) return kNil;
    memo_key_ = k;
    memo_slot_ = *n;
    return *n;
  }

  void LinkFront(std::uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    if (head_ != kNil) {
      nodes_[head_].prev = n;
    } else {
      tail_ = n;
    }
    head_ = n;
  }

  void Unlink(std::uint32_t n) {
    const Node& node = nodes_[n];
    if (node.prev != kNil) {
      nodes_[node.prev].next = node.next;
    } else {
      head_ = node.next;
    }
    if (node.next != kNil) {
      nodes_[node.next].prev = node.prev;
    } else {
      tail_ = node.prev;
    }
  }

  void MoveToFront(std::uint32_t n) {
    if (n == head_) return;
    Unlink(n);
    LinkFront(n);
  }

  /// Drops entry `n` (its value already moved out) and recycles its slot.
  void Erase(std::uint32_t n) {
    if (memo_slot_ == n) memo_slot_ = kNil;
    index_.erase(nodes_[n].key);
    Unlink(n);
    nodes_.Release(n);
  }

  std::pair<Key, Value> EvictOne() {
    for (std::uint32_t n = tail_; n != kNil; n = nodes_[n].prev) {
      if (nodes_[n].pins == 0) {
        std::pair<Key, Value> out{nodes_[n].key, std::move(nodes_[n].value)};
        Erase(n);
        return out;
      }
    }
    // Reaching here means the precondition (one unpinned entry when full)
    // was violated. In a release build the old assert compiled away and fell
    // into undefined behavior; fail hard instead.
    std::fprintf(stderr,
                 "LruCache: all %zu entries pinned; cannot evict (capacity "
                 "%zu)\n",
                 index_.size(), capacity_);
    std::abort();
  }

  std::size_t capacity_;
  util::Slab<Node> nodes_;
  util::FlatMap<Key, std::uint32_t> index_;  ///< key -> slot in nodes_
  std::uint32_t head_ = kNil;  ///< most recently used
  std::uint32_t tail_ = kNil;  ///< least recently used
  // Last-lookup memo (mutable: const reads refresh it).
  mutable Key memo_key_{};
  mutable std::uint32_t memo_slot_ = kNil;
};

}  // namespace psoodb::storage

#endif  // PSOODB_STORAGE_LRU_CACHE_H_
