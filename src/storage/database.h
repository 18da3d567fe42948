/// \file database.h
/// The simulated database: the object<->page layout plus the ground-truth
/// committed version of every object. The version store does not model any
/// cost; it exists so tests can verify the protocols' cache-consistency and
/// serializability guarantees on every run.

#ifndef PSOODB_STORAGE_DATABASE_H_
#define PSOODB_STORAGE_DATABASE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/types.h"

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
  Database(int num_pages, int objects_per_page)
      : layout_(num_pages, objects_per_page),
        committed_(static_cast<std::size_t>(layout_.num_objects()), 0) {}

  ObjectLayout& layout() { return layout_; }
  const ObjectLayout& layout() const { return layout_; }

  Version committed_version(ObjectId oid) const {
    return committed_[static_cast<std::size_t>(oid)];
  }

  /// Installs a new committed version for `oid`; returns the new version.
  Version CommitWrite(ObjectId oid) {
    return ++committed_[static_cast<std::size_t>(oid)];
  }

 private:
  ObjectLayout layout_;
  std::vector<Version> committed_;
};

}  // namespace psoodb::storage

#endif  // PSOODB_STORAGE_DATABASE_H_
