#include "storage/database.h"

#include <limits>

#include "util/check.h"

namespace psoodb::storage {

ObjectLayout::ObjectLayout(int num_pages, int objects_per_page)
    : num_pages_(num_pages), objects_per_page_(objects_per_page) {
  PSOODB_CHECK(num_pages > 0 && objects_per_page > 0,
               "empty layout (%d pages x %d objects)", num_pages,
               objects_per_page);
  PSOODB_CHECK(num_objects() <= std::numeric_limits<std::uint32_t>::max(),
               "%d pages x %d objects do not fit 32-bit object ids",
               num_pages, objects_per_page);
}

void ObjectLayout::Swap(ObjectId a, ObjectId b) {
  PSOODB_DCHECK(a >= 0 && a < num_objects() && b >= 0 && b < num_objects(),
                "Swap out of range");
  if (!relocated()) {
    // The first relocation materialises the dense mapping; from here on
    // every lookup reads the tables.
    const std::size_t n = static_cast<std::size_t>(num_objects());
    loc_.resize(n);
    at_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      loc_[i] = {static_cast<PageId>(i / objects_per_page_),
                 static_cast<int>(i % objects_per_page_)};
      at_[i] = static_cast<ObjectId>(i);
    }
  }
  auto la = loc_[a];
  auto lb = loc_[b];
  loc_[a] = lb;
  loc_[b] = la;
  at_[static_cast<std::size_t>(la.first) * objects_per_page_ + la.second] = b;
  at_[static_cast<std::size_t>(lb.first) * objects_per_page_ + lb.second] = a;
}

Database::Database(int num_pages, int objects_per_page)
    : layout_(num_pages, objects_per_page),
      num_blocks_((static_cast<std::size_t>(layout_.num_objects()) +
                   kBlockObjects - 1) >>
                  kBlockBits),
      blocks_(std::make_unique<std::atomic<Version*>[]>(num_blocks_)) {}

Database::~Database() {
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    delete[] blocks_[b].load(std::memory_order_relaxed);
  }
}

Version* Database::Publish(std::size_t b) {
  Version* fresh = new Version[kBlockObjects]();
  Version* seen = nullptr;
  if (blocks_[b].compare_exchange_strong(seen, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    return fresh;
  }
  // Another worker published the block first: use its copy.
  delete[] fresh;
  return seen;
}

}  // namespace psoodb::storage
