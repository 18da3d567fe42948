// Randomized model check of cc::LocalTxnLocks, the one footprint table per
// client (a FlatMap from page to slot masks), against the representation it
// replaced: six FlatSets of objects and pages plus the clients' own pinned
// page and pinned object sets, kept here as the reference.
//
// Random reads and writes (each answered with what the client used to
// learn from the reference: an own write, a new page pin, a new object
// pin), page and object write grants, page write revocations, pin releases
// and transaction ends run against both, over dense and relocated layouts
// with 8 and 64 objects per page. After every step each query agrees for
// every object and page, and every set the reference iterates equals the
// table's expansion as a sorted set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cc/local_locks.h"
#include "sim/random.h"
#include "storage/buffer_manager.h"
#include "storage/database.h"
#include "util/flat_set.h"

namespace psoodb::cc {
namespace {

using storage::ObjectId;
using storage::PageId;
using storage::SlotMask;

/// The six-set footprint the table replaced (tracing left out), with the
/// page family's and OS's pinned sets beside it.
class SixSetLocks {
 public:
  void Clear() {
    read_objects_.clear();
    write_objects_.clear();
    read_pages_.clear();
    write_pages_.clear();
    page_write_locks_.clear();
    object_write_locks_.clear();
  }
  void RecordRead(ObjectId oid, PageId page) {
    read_objects_.insert(oid);
    read_pages_.insert(page);
  }
  void RecordWrite(ObjectId oid, PageId page) {
    write_objects_.insert(oid);
    write_pages_.insert(page);
    read_objects_.insert(oid);
    read_pages_.insert(page);
  }
  bool ReadsObject(ObjectId oid) const { return read_objects_.count(oid) > 0; }
  bool WritesObject(ObjectId oid) const {
    return write_objects_.count(oid) > 0;
  }
  bool UsesPage(PageId page) const {
    return read_pages_.count(page) > 0 || write_pages_.count(page) > 0;
  }
  void GrantPageWrite(PageId page) { page_write_locks_.insert(page); }
  void RevokePageWrite(PageId page) { page_write_locks_.erase(page); }
  bool HasPageWrite(PageId page) const {
    return page_write_locks_.count(page) > 0;
  }
  void GrantObjectWrite(ObjectId oid) { object_write_locks_.insert(oid); }
  bool HasObjectWrite(ObjectId oid) const {
    return object_write_locks_.count(oid) > 0;
  }

  util::FlatSet<ObjectId> read_objects_;
  util::FlatSet<ObjectId> write_objects_;
  util::FlatSet<PageId> read_pages_;
  util::FlatSet<PageId> write_pages_;
  util::FlatSet<PageId> page_write_locks_;
  util::FlatSet<ObjectId> object_write_locks_;
  /// PageFamilyClient::pinned_pages_ and OsClient::pinned_objects_.
  util::FlatSet<PageId> pinned_pages_;
  util::FlatSet<ObjectId> pinned_objects_;
};

template <typename K>
std::vector<K> Sorted(const util::FlatSet<K>& set) {
  std::vector<K> v(set.begin(), set.end());
  std::sort(v.begin(), v.end());
  return v;
}

/// The table's expansion of one kind of footprint entry.
struct Expanded {
  std::vector<ObjectId> read_objects, write_objects, object_write_locks;
  std::vector<PageId> read_pages, write_pages, page_write_locks;
};

Expanded Expand(const LocalTxnLocks& l, const storage::ObjectLayout& layout) {
  Expanded e;
  const auto objects = [&layout](PageId page, SlotMask m,
                                 std::vector<ObjectId>& out) {
    ForEachObject(layout, page, m,
                  [&out](ObjectId oid) { out.push_back(oid); });
  };
  for (const auto& [page, fp] : l.footprint()) {  // det-ok: sorted below
    objects(page, fp.read, e.read_objects);
    objects(page, fp.written, e.write_objects);
    objects(page, fp.write_locked, e.object_write_locks);
    if (fp.read != 0) e.read_pages.push_back(page);
    if (fp.written != 0) e.write_pages.push_back(page);
    if (fp.page_write_locked) e.page_write_locks.push_back(page);
  }
  for (auto* v : {&e.read_objects, &e.write_objects, &e.object_write_locks}) {
    std::sort(v->begin(), v->end());
  }
  for (auto* v : {&e.read_pages, &e.write_pages, &e.page_write_locks}) {
    std::sort(v->begin(), v->end());
  }
  return e;
}

struct LayoutCase {
  int pages;
  int objects_per_page;
  int swaps;  ///< random relocations applied before the run (0: dense)
};

class LocalLocksModel : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(LocalLocksModel, MatchesSixSetReference) {
  const LayoutCase lc = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    storage::ObjectLayout layout(lc.pages, lc.objects_per_page);
    sim::Rng rng(seed, 0x10CA1);
    const ObjectId n_objects = layout.num_objects();
    const auto any_object = [&] {
      return static_cast<ObjectId>(rng.UniformInt(0, n_objects - 1));
    };
    const auto any_page = [&] {
      return static_cast<PageId>(rng.UniformInt(0, lc.pages - 1));
    };
    for (int i = 0; i < lc.swaps; ++i) layout.Swap(any_object(), any_object());

    LocalTxnLocks table(layout);
    SixSetLocks ref;
    bool released = false;  // the transaction's pins were released

    // What UnpinAll unpinned: the reference's pinned sets, against the read
    // masks of the table when ReleasePins says the pins are still held.
    const auto unpin = [&](int step) {
      const bool first = table.ReleasePins();
      ASSERT_EQ(first, !released) << "step " << step;
      if (first) {
        const Expanded e = Expand(table, layout);
        EXPECT_EQ(e.read_pages, Sorted(ref.pinned_pages_)) << "step " << step;
        EXPECT_EQ(e.read_objects, Sorted(ref.pinned_objects_))
            << "step " << step;
      } else {
        EXPECT_TRUE(ref.pinned_pages_.empty()) << "step " << step;
        EXPECT_TRUE(ref.pinned_objects_.empty()) << "step " << step;
      }
      ref.pinned_pages_.clear();
      ref.pinned_objects_.clear();
      released = true;
    };

    for (int step = 0; step < 3000; ++step) {
      const int op = static_cast<int>(rng.UniformInt(0, 99));
      if (op < 50 && !released) {
        // A read or a write, as the clients record it.
        const ObjectId oid = any_object();
        const PageId page = layout.PageOf(oid);
        const bool write = op < 15;
        const bool own = ref.WritesObject(oid);
        if (write) {
          ref.RecordWrite(oid, page);
        } else {
          ref.RecordRead(oid, page);
        }
        const bool new_page = ref.pinned_pages_.insert(page);
        const bool new_object = ref.pinned_objects_.insert(oid);
        const LocalTxnLocks::Access a =
            write ? table.RecordWrite(oid) : table.RecordRead(oid);
        EXPECT_EQ(a.own_write, own) << "step " << step;
        EXPECT_EQ(a.first_on_page, new_page) << "step " << step;
        EXPECT_EQ(a.first_of_object, new_object) << "step " << step;
      } else if (op < 62) {
        const PageId page = any_page();
        ref.GrantPageWrite(page);
        table.GrantPageWrite(page);
      } else if (op < 77) {
        const ObjectId oid = any_object();
        ref.GrantObjectWrite(oid);
        table.GrantObjectWrite(oid);
      } else if (op < 89) {
        const PageId page = any_page();
        ref.RevokePageWrite(page);
        table.RevokePageWrite(page);
      } else if (op < 95) {
        unpin(step);  // Client::Abort unpins before its purge
      } else {
        // Client::EndTxnLocal: unpin (again, after an abort), then clear.
        unpin(step);
        ref.Clear();
        table.Clear();
        released = false;
      }

      for (ObjectId oid = 0; oid < n_objects; ++oid) {
        const PageId page = layout.PageOf(oid);
        ASSERT_EQ(table.ReadsObject(oid), ref.ReadsObject(oid))
            << "step " << step << " oid " << oid;
        ASSERT_EQ(table.WritesObject(oid), ref.WritesObject(oid))
            << "step " << step << " oid " << oid;
        ASSERT_EQ(table.HasObjectWrite(oid), ref.HasObjectWrite(oid))
            << "step " << step << " oid " << oid;
        ASSERT_EQ(table.HoldsWrite(oid),
                  ref.HasPageWrite(page) || ref.HasObjectWrite(oid))
            << "step " << step << " oid " << oid;
      }
      for (PageId page = 0; page < lc.pages; ++page) {
        ASSERT_EQ(table.UsesPage(page), ref.UsesPage(page))
            << "step " << step << " page " << page;
        ASSERT_EQ(table.HasPageWrite(page), ref.HasPageWrite(page))
            << "step " << step << " page " << page;
      }
      const Expanded e = Expand(table, layout);
      ASSERT_EQ(e.read_objects, Sorted(ref.read_objects_)) << "step " << step;
      ASSERT_EQ(e.write_objects, Sorted(ref.write_objects_))
          << "step " << step;
      ASSERT_EQ(e.object_write_locks, Sorted(ref.object_write_locks_))
          << "step " << step;
      ASSERT_EQ(e.read_pages, Sorted(ref.read_pages_)) << "step " << step;
      ASSERT_EQ(e.write_pages, Sorted(ref.write_pages_)) << "step " << step;
      ASSERT_EQ(e.page_write_locks, Sorted(ref.page_write_locks_))
          << "step " << step;
      if (!released) {
        ASSERT_EQ(e.read_pages, Sorted(ref.pinned_pages_)) << "step " << step;
        ASSERT_EQ(e.read_objects, Sorted(ref.pinned_objects_))
            << "step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LocalLocksModel,
    ::testing::Values(LayoutCase{12, 8, 0}, LayoutCase{12, 8, 200},
                      LayoutCase{3, 64, 0}, LayoutCase{3, 64, 200}),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return std::to_string(info.param.objects_per_page) + "PerPage" +
             (info.param.swaps == 0 ? "Dense" : "Swapped");
    });

}  // namespace
}  // namespace psoodb::cc
