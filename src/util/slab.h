/// \file slab.h
/// Stable-address object store indexed by 32-bit slot numbers, the storage
/// under the request-path tables (LRU caches, the lock table, the copy table,
/// the waits-for graph). Each of those used to allocate a hash or list node
/// per entry; on a slab an entry costs a free-list pop, and an index
/// (util::FlatMap<Key, std::uint32_t>) maps keys to slots.
///
/// Contract:
///   - an object never moves: chunks are allocated whole and never
///     reallocated, so a T* or T& stays valid across later Acquire calls
///     (callers keep PageFrame pointers and lock-entry CondVars across
///     inserts and co_awaits);
///   - chunk k holds kFirstChunk << k objects, so a slab that stays small
///     (a client cache holding a few dozen pages) stays small;
///   - a slab owns no memory before its first Acquire;
///   - Release returns a slot to a LIFO free list; the next Acquire reuses
///     it. The object is NOT destroyed on release: the recycled slot hands
///     back the object its last occupant left, with whatever capacity it
///     grew (holder lists, held-lock sets), so the steady state allocates
///     nothing. Owners reset an object's state before releasing it or after
///     acquiring it; every constructed object is destroyed with the slab;
///   - a slab has no iteration. Slot numbers depend on the release history;
///     owners that need an order keep it themselves (LruCache's recency
///     links, sorted lists), and owners that sweep every entry iterate their
///     index, which util::FlatMap already marks as unordered.

#ifndef PSOODB_UTIL_SLAB_H_
#define PSOODB_UTIL_SLAB_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "util/check.h"

namespace psoodb::util {

/// "No slot": never returned by Slab::Acquire; owners use it as a null link.
inline constexpr std::uint32_t kNoSlot = UINT32_MAX;

template <typename T>
class Slab {
 public:
  Slab() = default;
  ~Slab() {
    for (std::uint32_t i = 0; i < constructed_; ++i) At(i).~Cell();
    for (Cell* c : chunks_) ::operator delete(c);
  }
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Returns a free slot. A recycled slot holds the object its last occupant
  /// released; a fresh one holds T(args...).
  template <typename... Args>
  std::uint32_t Acquire(Args&&... args) {
    if (free_ != kNoSlot) {
      const std::uint32_t i = free_;
      free_ = At(i).next_free;
      return i;
    }
    const std::uint32_t i = constructed_;
    if (i == capacity_) AddChunk();
    ::new (static_cast<void*>(&At(i)))
        Cell{T(std::forward<Args>(args)...), kNoSlot};
    ++constructed_;
    return i;
  }

  /// Returns slot `i` to the free list; its object stays constructed.
  void Release(std::uint32_t i) {
    PSOODB_DCHECK(i < constructed_, "Slab::Release(%u)", i);
    At(i).next_free = free_;
    free_ = i;
  }

  T& operator[](std::uint32_t i) { return At(i).value; }
  const T& operator[](std::uint32_t i) const { return At(i).value; }

 private:
  static constexpr std::uint32_t kFirstChunkBits = 3;
  static constexpr std::uint32_t kFirstChunk = 1u << kFirstChunkBits;
  /// 8 * (2^24 - 1) slots: far beyond any table in the model.
  static constexpr std::size_t kMaxChunks = 24;

  struct Cell {
    T value;
    std::uint32_t next_free;
  };
  static_assert(alignof(Cell) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  /// Chunk k covers slots [F * (2^k - 1), F * (2^(k+1) - 1)), F =
  /// kFirstChunk.
  Cell& At(std::uint32_t i) const {
    const std::uint32_t q = (i >> kFirstChunkBits) + 1;
    const int k = static_cast<int>(std::bit_width(q)) - 1;
    const std::uint32_t first = (kFirstChunk << k) - kFirstChunk;
    return chunks_[k][i - first];
  }

  void AddChunk() {
    PSOODB_CHECK(chunk_count_ < kMaxChunks, "Slab is full (%u slots)",
                 capacity_);
    const std::uint32_t n = kFirstChunk << chunk_count_;
    chunks_[chunk_count_++] =
        static_cast<Cell*>(::operator new(sizeof(Cell) * n));
    capacity_ += n;
  }

  Cell* chunks_[kMaxChunks] = {};
  std::size_t chunk_count_ = 0;
  std::uint32_t capacity_ = 0;     // slots in allocated chunks
  std::uint32_t constructed_ = 0;  // slots [0, constructed_) hold objects
  std::uint32_t free_ = kNoSlot;   // head of the free list
};

}  // namespace psoodb::util

#endif  // PSOODB_UTIL_SLAB_H_
