/// \file flat_set.h
/// Open-addressing hash set and map for integral keys, for the per-
/// transaction tables every client clears at each commit (its footprint and
/// read versions) and the request-path indexes. std::unordered_* allocate a
/// node per insert and free them all at clear(); these tables allocate only
/// when they grow, so a client's steady state is allocation-free.
///
/// Contract:
///   - keys are integral; any value is a valid key (occupancy is kept in a
///     separate control byte per slot, not in a reserved key);
///   - linear probing over a power-of-two table, at most 3/4 full;
///   - the slots and the control bytes share one heap block, allocated on
///     the first insert (an unused table owns no memory);
///   - clear() keeps the capacity, so refilling to the previous size does
///     not allocate;
///   - erase() shifts the rest of the probe run back (no tombstones), so
///     lookups never slow down with churn;
///   - iteration is in slot (layout) order, which depends on the hash and
///     the insertion history. Treat it as unordered: psoodb-analyze does,
///     and a loop whose effects depend on the order needs sorting first.
///
/// Restricted to trivially copyable keys and mapped values, like
/// util::SmallVector, so growth is a re-probe of raw slots.

#ifndef PSOODB_UTIL_FLAT_SET_H_
#define PSOODB_UTIL_FLAT_SET_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

namespace psoodb::util {

namespace flat_detail {

/// Home slot of key `k` in a table of 2^bits slots (bits >= 1). Fibonacci
/// hashing: the top bits of a multiplicative hash spread dense ids (the
/// common key here) evenly over the table.
template <typename K>
std::size_t HomeSlot(K k, int bits) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

template <typename K>
const K& KeyOf(const K& k) {
  return k;
}
template <typename K, typename V>
const K& KeyOf(const std::pair<K, V>& kv) {
  return kv.first;
}

/// The probing core shared by FlatSet (Slot = K) and FlatMap
/// (Slot = std::pair<K, V>).
template <typename K, typename Slot>
class Table {
  static_assert(std::is_integral_v<K>, "flat tables take integral keys");

 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Slot;
    using difference_type = std::ptrdiff_t;
    using pointer = const Slot*;
    using reference = const Slot&;

    const_iterator() = default;
    reference operator*() const { return t_->slots_[i_]; }
    pointer operator->() const { return &t_->slots_[i_]; }
    const_iterator& operator++() {
      i_ = t_->NextFull(i_ + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    friend class Table;
    const_iterator(const Table* t, std::size_t i) : t_(t), i_(i) {}
    const Table* t_ = nullptr;
    std::size_t i_ = 0;
  };

  Table() = default;
  ~Table() { ::operator delete(slots_); }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot count of the current block (0 before the first insert).
  std::size_t capacity() const { return cap_; }

  std::size_t count(K k) const { return Find(k) != cap_ ? 1 : 0; }

  /// Empties the table and keeps its block.
  void clear() {
    if (size_ == 0) return;
    std::memset(full_, 0, cap_);
    size_ = 0;
  }

  /// Removes `k` if present; returns the number removed (0 or 1).
  std::size_t erase(K k) {
    std::size_t hole = Find(k);
    if (hole == cap_) return 0;
    // Backward shift: walk the rest of the probe run and move back every
    // slot whose home lies cyclically at or before the hole, so no lookup
    // ever needs to probe past an empty slot to find its key.
    const std::size_t mask = cap_ - 1;
    for (std::size_t j = (hole + 1) & mask; full_[j] != 0;
         j = (j + 1) & mask) {
      const std::size_t home = Home(KeyOf(slots_[j]));
      if (((j - hole) & mask) <= ((j - home) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    full_[hole] = 0;
    --size_;
    return 1;
  }

  const_iterator begin() const { return const_iterator(this, NextFull(0)); }
  const_iterator end() const { return const_iterator(this, cap_); }

 protected:
  /// Slot of `k`, or cap_ if absent.
  std::size_t Find(K k) const {
    if (size_ == 0) return cap_;
    const std::size_t mask = cap_ - 1;
    for (std::size_t i = Home(k); full_[i] != 0; i = (i + 1) & mask) {
      if (KeyOf(slots_[i]) == k) return i;
    }
    return cap_;
  }

  /// Inserts `slot` unless its key is present; returns true if inserted.
  bool Insert(const Slot& slot) {
    const std::size_t before = size_;
    FindOrInsert(slot);
    return size_ != before;
  }

  /// Slot of `slot`'s key, inserting `slot` first if the key is absent. One
  /// probe run: a missing key's run ends at the slot it goes into, unless
  /// the table has to grow first.
  std::size_t FindOrInsert(const Slot& slot) {
    const K k = KeyOf(slot);
    std::size_t i = 0;
    if (cap_ != 0) {
      const std::size_t mask = cap_ - 1;
      for (i = Home(k); full_[i] != 0; i = (i + 1) & mask) {
        if (KeyOf(slots_[i]) == k) return i;
      }
    }
    if ((size_ + 1) * 4 > cap_ * 3) {
      Grow();
      i = FreeSlotFor(k);
    }
    ::new (static_cast<void*>(&slots_[i])) Slot(slot);
    full_[i] = 1;
    ++size_;
    return i;
  }

  Slot* slots_ = nullptr;  // owns the block; full_ points into its tail

 private:
  static constexpr int kMinBits = 3;
  static constexpr std::size_t kMinCapacity = std::size_t{1} << kMinBits;

  std::size_t Home(K k) const { return HomeSlot(k, bits_); }

  std::size_t FreeSlotFor(K k) const {
    const std::size_t mask = cap_ - 1;
    std::size_t i = Home(k);
    while (full_[i] != 0) i = (i + 1) & mask;
    return i;
  }

  std::size_t NextFull(std::size_t i) const {
    while (i < cap_ && full_[i] == 0) ++i;
    return i;
  }

  void Grow() {
    Slot* old_slots = slots_;
    const unsigned char* old_full = full_;
    const std::size_t old_cap = cap_;
    cap_ = old_cap == 0 ? kMinCapacity : old_cap * 2;
    ++bits_;
    void* block = ::operator new(cap_ * sizeof(Slot) + cap_);
    slots_ = static_cast<Slot*>(block);
    full_ = static_cast<unsigned char*>(block) + cap_ * sizeof(Slot);
    std::memset(full_, 0, cap_);
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old_full[i] == 0) continue;
      const std::size_t j = FreeSlotFor(KeyOf(old_slots[i]));
      ::new (static_cast<void*>(&slots_[j])) Slot(old_slots[i]);
      full_[j] = 1;
    }
    ::operator delete(old_slots);
  }

  unsigned char* full_ = nullptr;  // one control byte per slot: 1 = full
  std::size_t cap_ = 0;            // 0 or a power of two >= kMinCapacity
  std::size_t size_ = 0;
  int bits_ = kMinBits - 1;        // log2(cap_) once allocated
};

}  // namespace flat_detail

/// Hash set of integral keys; see the file comment for the contract.
template <typename K>
class FlatSet : public flat_detail::Table<K, K> {
 public:
  /// Inserts `k`; returns true if it was not already present.
  bool insert(K k) { return this->Insert(k); }
};

/// Hash map from integral keys to trivially copyable values; see the file
/// comment for the contract. Iterates std::pair<K, V> slots.
template <typename K, typename V>
class FlatMap : public flat_detail::Table<K, std::pair<K, V>> {
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatMap values must be trivially copyable");

 public:
  /// Inserts (k, v) unless `k` is present (the existing value wins);
  /// returns true if inserted.
  bool emplace(K k, V v) { return this->Insert({k, v}); }

  /// The value mapped to `k`, inserting a value-initialized one if absent.
  /// The reference is valid until the next insert or erase.
  V& operator[](K k) {
    // Probe first: the insert may grow the table and move slots_.
    const std::size_t i = this->FindOrInsert({k, V{}});
    return this->slots_[i].second;
  }

  /// The value mapped to `k`, or null. The pointer is valid until the next
  /// insert or erase.
  const V* find(K k) const {
    const std::size_t i = this->Find(k);
    return i != this->capacity() ? &this->slots_[i].second : nullptr;
  }
  V* find(K k) {
    const std::size_t i = this->Find(k);
    return i != this->capacity() ? &this->slots_[i].second : nullptr;
  }
};

}  // namespace psoodb::util

#endif  // PSOODB_UTIL_FLAT_SET_H_
