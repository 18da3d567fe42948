/// \file buffer_manager.h
/// Page-granularity buffer frames and caches, used by page-server clients and
/// by the server. A frame tracks, per object slot: availability (objects
/// write-locked elsewhere are marked "unavailable", Section 3.3), dirtiness
/// (uncommitted local updates), and the object version held (for the
/// correctness checker). Slot sets are bitmasks: the model supports up to 64
/// objects per page (the paper uses 20).

#ifndef PSOODB_STORAGE_BUFFER_MANAGER_H_
#define PSOODB_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <vector>

#include "storage/lru_cache.h"
#include "storage/types.h"
#include "util/check.h"

namespace psoodb::storage {

/// Maximum objects per page supported by the bitmask representation.
inline constexpr int kMaxObjectsPerPage = 64;

/// Bitmask over a page's object slots.
using SlotMask = std::uint64_t;

inline SlotMask SlotBit(int slot) {
  PSOODB_DCHECK(slot >= 0 && slot < kMaxObjectsPerPage, "slot %d", slot);
  return SlotMask{1} << slot;
}

inline int PopCount(SlotMask m) { return __builtin_popcountll(m); }

/// One cached page copy.
struct PageFrame {
  /// Slots whose objects are write-locked at other clients; they may not be
  /// read from this copy (client-side state; unused at the server).
  SlotMask unavailable = 0;
  /// Slots updated by this client's active (uncommitted) transaction.
  /// At the server: slots updated since the frame was last clean on disk.
  SlotMask dirty = 0;
  /// Version of the object held in each slot (correctness checking only).
  /// A client frame takes them from the page ship that filled it; the
  /// server's buffer frames leave them empty (the store's committed
  /// versions are the server's copy).
  std::vector<Version> versions;
  /// Net object growth accumulated by the active transaction (client side;
  /// size-changing updates, Section 6.1).
  int pending_growth = 0;

  bool IsDirty() const { return dirty != 0; }
  bool IsAvailable(int slot) const { return (unavailable & SlotBit(slot)) == 0; }
  void MarkUnavailable(int slot) { unavailable |= SlotBit(slot); }
  void MarkAvailable(int slot) { unavailable &= ~SlotBit(slot); }
  void MarkDirty(int slot) { dirty |= SlotBit(slot); }
};

/// An LRU cache of page copies. Under Callback Locking a cached copy *is*
/// the read permission, so clients pin their transaction's footprint
/// (LruCache::Pin carries PSOODB_ACQUIRES(pin); see util/annotations.h and
/// docs/ANALYZER.md for the obligation classes psoodb-analyze tracks).
using PageCache = LruCache<PageId, PageFrame>;

}  // namespace psoodb::storage

#endif  // PSOODB_STORAGE_BUFFER_MANAGER_H_
