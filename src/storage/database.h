/// \file database.h
/// The simulated database: the object<->page layout plus the ground-truth
/// committed version of every object. The version store does not model any
/// cost; it exists so tests can verify the protocols' cache-consistency and
/// serializability guarantees on every run.
///
/// The ground truth is stored by block: 64 consecutive object ids share one
/// block of versions, allocated at the first commit to any of them, and an
/// object whose block was never written reads as version 0. A run's memory
/// for it therefore follows the objects it writes, not the database size.
/// At P > 1 a server's commit (on its partition's worker) and a client's
/// validity check of the same block (on another worker) can meet: a block
/// is published with a compare-and-swap and its pointer read with an
/// acquire load, and a published block never moves.

#ifndef PSOODB_STORAGE_DATABASE_H_
#define PSOODB_STORAGE_DATABASE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "storage/types.h"
#include "util/annotations.h"

namespace psoodb::storage {

/// Maps objects to (page, slot) locations and back. The default layout is
/// dense: object `i` lives at page `i / objects_per_page`,
/// slot `i % objects_per_page`, computed from the id. Locations can be
/// swapped to model declustered / interleaved placements; the first Swap
/// builds an oid -> location table and its inverse, which every lookup then
/// reads, so a layout that is never swapped holds no per-object memory.
class ObjectLayout {
 public:
  /// CHECKs that the layout is non-empty and that its object ids fit in
  /// 32 bits, the width the dense arithmetic uses.
  ObjectLayout(int num_pages, int objects_per_page);

  int num_pages() const { return num_pages_; }
  int objects_per_page() const { return objects_per_page_; }
  ObjectId num_objects() const {
    return static_cast<ObjectId>(num_pages_) * objects_per_page_;
  }

  PageId PageOf(ObjectId oid) const {
    if (relocated()) return loc_[static_cast<std::size_t>(oid)].first;
    return static_cast<PageId>(static_cast<std::uint32_t>(oid) / opp());
  }
  int SlotOf(ObjectId oid) const {
    if (relocated()) return loc_[static_cast<std::size_t>(oid)].second;
    return static_cast<int>(static_cast<std::uint32_t>(oid) % opp());
  }
  ObjectId ObjectAt(PageId page, int slot) const {
    const std::uint32_t at = static_cast<std::uint32_t>(page) * opp() +
                             static_cast<std::uint32_t>(slot);
    return relocated() ? at_[at] : ObjectId{at};
  }

  /// Swaps the physical locations of two objects.
  void Swap(ObjectId a, ObjectId b);

 private:
  bool relocated() const { return !at_.empty(); }
  std::uint32_t opp() const {
    return static_cast<std::uint32_t>(objects_per_page_);
  }

  int num_pages_;
  int objects_per_page_;
  // Empty until the first Swap.
  std::vector<std::pair<PageId, int>> loc_;  // oid -> (page, slot)
  std::vector<ObjectId> at_;                 // page*opp+slot -> oid
};

/// Ground truth for correctness checking: the latest committed version of
/// every object.
class Database {
 public:
  Database(int num_pages, int objects_per_page);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  ObjectLayout& layout() { return layout_; }
  const ObjectLayout& layout() const { return layout_; }

  Version committed_version(ObjectId oid) const {
    const Version* block =
        blocks_[BlockOf(oid)].load(std::memory_order_acquire);
    return block == nullptr ? 0 : block[OffsetOf(oid)];
  }

  /// Installs a new committed version for `oid`; returns the new version.
  Version CommitWrite(ObjectId oid) {
    Version* block = blocks_[BlockOf(oid)].load(std::memory_order_acquire);
    if (block == nullptr) block = Publish(BlockOf(oid));
    return ++block[OffsetOf(oid)];
  }

 private:
  /// Object ids per block of versions (a power of two).
  static constexpr int kBlockBits = 6;
  static constexpr std::uint32_t kBlockObjects = 1u << kBlockBits;

  static std::size_t BlockOf(ObjectId oid) {
    return static_cast<std::uint32_t>(oid) >> kBlockBits;
  }
  static std::size_t OffsetOf(ObjectId oid) {
    return static_cast<std::uint32_t>(oid) & (kBlockObjects - 1);
  }
  /// Allocates block `b` zeroed and publishes it, or returns the block
  /// another worker published first.
  Version* Publish(std::size_t b);

  ObjectLayout layout_;
  std::size_t num_blocks_;
  // Block index -> block of kBlockObjects versions, null until its first
  // commit. Shared by every partition's worker: a block is published by a
  // compare-and-swap (release) and its pointer read by an acquire load, so
  // a reader sees null (every object at version 0) or the zeroed block. An
  // object is written only on its owning server's worker, and a commit
  // follows every remote read of the older version through the callback
  // that dropped the reader's copy and the window barrier that crossed it.
  std::unique_ptr<std::atomic<Version*>[]> blocks_ PSOODB_SHARD_SHARED;
};

}  // namespace psoodb::storage

#endif  // PSOODB_STORAGE_DATABASE_H_
