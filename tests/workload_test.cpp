// Tests for the workload generators: transaction shape (pages, locality),
// region probabilities, write probabilities, clustered/unclustered ordering,
// and the Table 2 presets including Interleaved PRIVATE layout swaps.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "config/params.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace psoodb::workload {
namespace {

using config::AccessPattern;
using config::Locality;
using config::SystemParams;
using config::WorkloadParams;
using storage::ObjectId;
using storage::PageId;

SystemParams DefaultSys() { return SystemParams{}; }

PageId HomePage(ObjectId oid, const SystemParams& sys) {
  return static_cast<PageId>(oid / sys.objects_per_page);
}

TEST(WorkloadTest, TransactionAccessesDistinctObjects) {
  auto sys = DefaultSys();
  auto w = config::MakeUniform(sys, Locality::kLow, 0.1);
  TransactionSource src(w, sys, 0, 1);
  for (int t = 0; t < 20; ++t) {
    auto refs = src.NextTransaction();
    std::set<ObjectId> distinct;
    for (auto& op : refs) distinct.insert(op.oid);
    EXPECT_EQ(distinct.size(), refs.size());
  }
}

TEST(WorkloadTest, TransactionTouchesTransSizeDistinctPages) {
  auto sys = DefaultSys();
  auto w = config::MakeUniform(sys, Locality::kLow, 0.0);
  TransactionSource src(w, sys, 0, 2);
  for (int t = 0; t < 20; ++t) {
    auto refs = src.NextTransaction();
    std::set<PageId> pages;
    for (auto& op : refs) pages.insert(HomePage(op.oid, sys));
    EXPECT_EQ(static_cast<int>(pages.size()), w.trans_size_pages);
  }
}

TEST(WorkloadTest, PageLocalityWithinBounds) {
  auto sys = DefaultSys();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.0);
  TransactionSource src(w, sys, 0, 3);
  for (int t = 0; t < 20; ++t) {
    auto refs = src.NextTransaction();
    std::map<PageId, int> per_page;
    for (auto& op : refs) ++per_page[HomePage(op.oid, sys)];
    for (auto& [page, n] : per_page) {
      EXPECT_GE(n, w.page_locality_min);
      EXPECT_LE(n, w.page_locality_max);
    }
  }
}

TEST(WorkloadTest, AverageTransactionLengthIs120Objects) {
  auto sys = DefaultSys();
  for (Locality loc : {Locality::kLow, Locality::kHigh}) {
    auto w = config::MakeUniform(sys, loc, 0.0);
    TransactionSource src(w, sys, 0, 4);
    double total = 0;
    const int kTxns = 500;
    for (int t = 0; t < kTxns; ++t) total += src.NextTransaction().size();
    EXPECT_NEAR(total / kTxns, 120.0, 4.0);
  }
}

TEST(WorkloadTest, WriteProbabilityIsRespected) {
  auto sys = DefaultSys();
  auto w = config::MakeUniform(sys, Locality::kLow, 0.2);
  TransactionSource src(w, sys, 0, 5);
  int writes = 0, total = 0;
  for (int t = 0; t < 300; ++t) {
    for (auto& op : src.NextTransaction()) {
      writes += op.is_write ? 1 : 0;
      ++total;
    }
  }
  EXPECT_NEAR(writes / static_cast<double>(total), 0.2, 0.02);
}

TEST(WorkloadTest, ZeroWriteProbabilityMeansReadOnly) {
  auto sys = DefaultSys();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.0);
  TransactionSource src(w, sys, 0, 6);
  for (int t = 0; t < 50; ++t) {
    for (auto& op : src.NextTransaction()) EXPECT_FALSE(op.is_write);
  }
}

TEST(WorkloadTest, ClusteredKeepsPageReferencesContiguous) {
  auto sys = DefaultSys();
  auto w = config::MakeUniform(sys, Locality::kLow, 0.1);
  w.pattern = AccessPattern::kClustered;
  TransactionSource src(w, sys, 0, 7);
  for (int t = 0; t < 20; ++t) {
    auto refs = src.NextTransaction();
    std::set<PageId> closed;  // pages whose run already ended
    PageId cur = -1;
    for (auto& op : refs) {
      PageId p = HomePage(op.oid, sys);
      if (p != cur) {
        EXPECT_EQ(closed.count(p), 0u) << "page revisited after its run";
        if (cur != -1) closed.insert(cur);
        cur = p;
      }
    }
  }
}

TEST(WorkloadTest, UnclusteredInterleavesPages) {
  auto sys = DefaultSys();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.1);
  TransactionSource src(w, sys, 0, 8);
  // With 10 pages x ~12 objects, an interleaved string almost surely switches
  // pages more than 9 times (a clustered one switches exactly 9 times).
  int switches = 0;
  auto refs = src.NextTransaction();
  for (std::size_t i = 1; i < refs.size(); ++i) {
    if (HomePage(refs[i].oid, sys) != HomePage(refs[i - 1].oid, sys)) {
      ++switches;
    }
  }
  EXPECT_GT(switches, 15);
}

TEST(WorkloadTest, HotColdRegionSkew) {
  auto sys = DefaultSys();
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.1);
  TransactionSource src(w, sys, /*client=*/2, 9);
  const auto& hot = w.client_regions[2][0];
  int hot_pages = 0, total_pages = 0;
  for (int t = 0; t < 200; ++t) {
    auto refs = src.NextTransaction();
    std::set<PageId> pages;
    for (auto& op : refs) pages.insert(HomePage(op.oid, sys));
    for (PageId p : pages) {
      ++total_pages;
      if (p >= hot.lo && p <= hot.hi) ++hot_pages;
    }
  }
  // 80% of draws target the hot region; the 20% uniform draws also land in
  // the hot region occasionally (50/1250 = 4%), minus without-replacement
  // pressure on the small hot region.
  double frac = hot_pages / static_cast<double>(total_pages);
  EXPECT_GT(frac, 0.70);
  EXPECT_LT(frac, 0.92);
}

TEST(WorkloadTest, HotColdRegionsAreClientPrivate) {
  auto sys = DefaultSys();
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.1);
  for (int a = 0; a < sys.num_clients; ++a) {
    for (int b = a + 1; b < sys.num_clients; ++b) {
      const auto& ra = w.client_regions[a][0];
      const auto& rb = w.client_regions[b][0];
      EXPECT_TRUE(ra.hi < rb.lo || rb.hi < ra.lo)
          << "hot regions of clients " << a << " and " << b << " overlap";
    }
  }
}

TEST(WorkloadTest, HiconSharedHotRegion) {
  auto sys = DefaultSys();
  auto w = config::MakeHicon(sys, Locality::kHigh, 0.1);
  for (int c = 0; c < sys.num_clients; ++c) {
    EXPECT_EQ(w.client_regions[c][0].lo, 0);
    EXPECT_EQ(w.client_regions[c][0].hi, 249);
    EXPECT_DOUBLE_EQ(w.client_regions[c][0].access_prob, 0.8);
  }
}

TEST(WorkloadTest, PrivateColdRegionIsReadOnly) {
  auto sys = DefaultSys();
  auto w = config::MakePrivate(sys, 0.3);
  TransactionSource src(w, sys, 0, 10);
  const auto& cold = w.client_regions[0][1];
  EXPECT_DOUBLE_EQ(cold.write_prob, 0.0);
  for (int t = 0; t < 100; ++t) {
    for (auto& op : src.NextTransaction()) {
      if (op.is_write) {
        PageId p = HomePage(op.oid, sys);
        EXPECT_LT(p, sys.db_pages / 2) << "write outside private hot region";
      }
    }
  }
}

TEST(WorkloadTest, InterleavedPrivateSwapsPairHotObjects) {
  auto sys = DefaultSys();
  auto w = config::MakeInterleavedPrivate(sys, 0.1);
  // 5 client pairs x 25 pages x 10 objects swapped per page pair.
  EXPECT_EQ(w.layout_swaps.size(), 5u * 25u * 10u);

  storage::Database db(sys.db_pages, sys.objects_per_page);
  for (auto [a, b] : w.layout_swaps) db.layout().Swap(a, b);
  const auto& layout = db.layout();

  // After interleaving, each page of client 0's original hot region holds 10
  // of client 0's objects (top half) and 10 of client 1's (bottom half).
  for (PageId p = 0; p < 25; ++p) {
    int from0 = 0, from1 = 0;
    for (int s = 0; s < sys.objects_per_page; ++s) {
      ObjectId oid = layout.ObjectAt(p, s);
      PageId home = HomePage(oid, sys);
      if (home < 25) {
        ++from0;
        EXPECT_LT(s, 10) << "client 0 objects must sit in the top half";
      } else if (home >= 25 && home < 50) {
        ++from1;
        EXPECT_GE(s, 10) << "client 1 objects must sit in the bottom half";
      }
    }
    EXPECT_EQ(from0, 10);
    EXPECT_EQ(from1, 10);
  }
}

TEST(WorkloadTest, InterleavedPrivateDoublesPhysicalPageSpread) {
  auto sys = DefaultSys();
  auto w = config::MakeInterleavedPrivate(sys, 0.1);
  storage::Database db(sys.db_pages, sys.objects_per_page);
  for (auto [a, b] : w.layout_swaps) db.layout().Swap(a, b);

  TransactionSource src(w, sys, 0, 11);
  double total_pages = 0;
  const int kTxns = 200;
  for (int t = 0; t < kTxns; ++t) {
    auto refs = src.NextTransaction();
    std::set<PageId> physical;
    for (auto& op : refs) physical.insert(db.layout().PageOf(op.oid));
    total_pages += static_cast<double>(physical.size());
  }
  // The paper describes the result as roughly transSize=20 (vs 10).
  EXPECT_NEAR(total_pages / kTxns, 20.0, 2.5);
}

TEST(WorkloadTest, CustomGeneratorReplacesRegionModel) {
  auto sys = DefaultSys();
  config::WorkloadParams w;
  w.name = "custom";
  w.custom_max_pages = 2;
  w.custom_generator = [](storage::ClientId client, std::uint64_t ordinal) {
    std::vector<config::CustomAccess> refs;
    // Client c alternates between two fixed objects; writes odd ordinals.
    refs.push_back({static_cast<ObjectId>(client * 100 + ordinal % 2),
                    ordinal % 2 == 1});
    return refs;
  };
  TransactionSource src(w, sys, /*client=*/3, /*seed=*/1);
  auto t0 = src.NextTransaction();
  auto t1 = src.NextTransaction();
  ASSERT_EQ(t0.size(), 1u);
  EXPECT_EQ(t0[0].oid, 300);
  EXPECT_FALSE(t0[0].is_write);
  EXPECT_EQ(t1[0].oid, 301);
  EXPECT_TRUE(t1[0].is_write);
  EXPECT_EQ(src.transactions_generated(), 2u);
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  auto sys = DefaultSys();
  auto w = config::MakeHotCold(sys, Locality::kLow, 0.15);
  TransactionSource a(w, sys, 3, 99), b(w, sys, 3, 99);
  for (int t = 0; t < 5; ++t) {
    auto ra = a.NextTransaction();
    auto rb = b.NextTransaction();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].oid, rb[i].oid);
      EXPECT_EQ(ra[i].is_write, rb[i].is_write);
    }
  }
}

TEST(WorkloadTest, ScaledDatabaseScalesRegions) {
  auto sys = DefaultSys();
  sys.db_pages = 1250 * 9;
  auto w = config::MakeHicon(sys, Locality::kLow, 0.1);
  EXPECT_EQ(w.client_regions[0][0].hi, 250 * 9 - 1);
  auto hc = config::MakeHotCold(sys, Locality::kLow, 0.1);
  EXPECT_EQ(hc.client_regions[0][0].hi - hc.client_regions[0][0].lo + 1,
            50 * 9);
}

// Property sweep: every preset yields in-bounds pages for every client.
// The preset name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, and that would put a per-build
// address into the listed test name.
class PresetSweep
    : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(PresetSweep, AllAccessesInBounds) {
  auto sys = DefaultSys();
  auto [name, which] = GetParam();
  WorkloadParams w;
  switch (which) {
    case 0: w = config::MakeHotCold(sys, Locality::kLow, 0.2); break;
    case 1: w = config::MakeUniform(sys, Locality::kHigh, 0.2); break;
    case 2: w = config::MakeHicon(sys, Locality::kLow, 0.2); break;
    case 3: w = config::MakePrivate(sys, 0.2); break;
    case 4: w = config::MakeInterleavedPrivate(sys, 0.2); break;
  }
  for (int c = 0; c < sys.num_clients; ++c) {
    TransactionSource src(w, sys, c, 12);
    for (int t = 0; t < 10; ++t) {
      for (auto& op : src.NextTransaction()) {
        EXPECT_GE(op.oid, 0);
        EXPECT_LT(op.oid,
                  static_cast<ObjectId>(sys.db_pages) * sys.objects_per_page);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetSweep,
    ::testing::Values(std::pair<std::string, int>{"hotcold", 0},
                      std::pair<std::string, int>{"uniform", 1},
                      std::pair<std::string, int>{"hicon", 2},
                      std::pair<std::string, int>{"private", 3},
                      std::pair<std::string, int>{"interleaved", 4}),
    [](const auto& info) { return info.param.first; });

}  // namespace
}  // namespace psoodb::workload
