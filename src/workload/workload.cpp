#include "workload/workload.h"

#include <algorithm>
#include <span>

#include "util/check.h"

namespace psoodb::workload {

using config::AccessPattern;
using config::RegionSpec;
using storage::ObjectId;
using storage::PageId;

namespace {
// A custom generator ignores the region tables; use an empty placeholder.
const std::vector<config::RegionSpec> kNoRegions;
}  // namespace

TransactionSource::TransactionSource(const config::WorkloadParams& workload,
                                     const config::SystemParams& sys,
                                     storage::ClientId client,
                                     std::uint64_t seed)
    : workload_(workload),
      sys_(sys),
      regions_(workload.custom_generator
                   ? &kNoRegions
                   : &workload.client_regions.at(client)),
      client_(client),
      rng_(seed, /*stream=*/0x30A0 + static_cast<std::uint64_t>(client)) {
  PSOODB_CHECK(workload.custom_generator || !regions_->empty(),
               "client %d has neither regions nor a custom generator", client);
}

void TransactionSource::ChoosePages(int n, PageDraws& chosen) {
  // The pages chosen so far are the used set: n is a transaction's page
  // count, so scanning them beats hashing.
  const auto fresh = [&chosen](PageId cand) {
    for (const PageDraw& p : chosen) {
      if (p.page == cand) return false;
    }
    return true;
  };
  const auto& regions = *regions_;
  for (int i = 0; i < n; ++i) {
    // Select a region by access probability.
    double u = rng_.NextDouble();
    int r = 0;
    for (; r + 1 < static_cast<int>(regions.size()); ++r) {
      if (u < regions[r].access_prob) break;
      u -= regions[r].access_prob;
    }
    // Pages are chosen without replacement (Section 5.2 footnote): rejection
    // sample inside the region, falling back to a linear probe and finally
    // to the whole database if the region is exhausted.
    const RegionSpec& reg = regions[r];
    PageId page = -1;
    for (int attempt = 0; attempt < 64; ++attempt) {
      PageId cand = static_cast<PageId>(rng_.UniformInt(reg.lo, reg.hi));
      if (fresh(cand)) {
        page = cand;
        break;
      }
    }
    if (page < 0) {
      for (PageId cand = reg.lo; cand <= reg.hi; ++cand) {
        if (fresh(cand)) {
          page = cand;
          break;
        }
      }
    }
    if (page < 0) {
      // Region exhausted; draw from the whole database.
      for (int attempt = 0; attempt < 1024 && page < 0; ++attempt) {
        PageId cand = static_cast<PageId>(rng_.UniformInt(0, sys_.db_pages - 1));
        if (fresh(cand)) page = cand;
      }
    }
    if (page >= 0) chosen.push_back({page, r, 0, 0});
  }
}

ReferenceString TransactionSource::NextTransaction() {
  ReferenceString out;
  NextTransaction(out);
  return out;
}

void TransactionSource::NextTransaction(ReferenceString& out) {
  out.clear();
  if (workload_.custom_generator) {
    auto accesses = workload_.custom_generator(client_, ordinal_++);
    out.reserve(accesses.size());
    for (const auto& a : accesses) out.push_back({a.oid, a.is_write});
    return;
  }
  ++ordinal_;
  const int opp = sys_.objects_per_page;
  // Room for the largest transaction the regions can draw, so the client's
  // one string is allocated once, in its first transaction, rather than
  // grown by doubling.
  out.reserve(static_cast<std::size_t>(workload_.trans_size_pages) *
              static_cast<std::size_t>(
                  std::min(workload_.page_locality_max, opp)));
  PageDraws pages;
  ChoosePages(workload_.trans_size_pages, pages);

  // Per-page object reference groups, laid out in page order.
  util::SmallVector<AccessOp, kInlineRefs> groups;
  util::SmallVector<std::int64_t, sim::Rng::kInlineSampleRange> slots;
  for (PageDraw& p : pages) {
    int k = static_cast<int>(rng_.UniformInt(workload_.page_locality_min,
                                             workload_.page_locality_max));
    k = std::min(k, opp);
    slots.resize(static_cast<std::size_t>(k));
    rng_.SampleWithoutReplacement(
        0, opp - 1, std::span<std::int64_t>(slots.begin(), slots.size()));
    p.begin = static_cast<int>(groups.size());
    p.size = k;
    const double wp = (*regions_)[p.region].write_prob;
    for (std::int64_t slot : slots) {
      ObjectId oid = static_cast<ObjectId>(p.page) * opp + slot;
      groups.push_back({oid, rng_.Bernoulli(wp)});
    }
  }

  if (workload_.pattern == AccessPattern::kClustered) {
    // All of a page's references appear together; page order is random.
    rng_.Shuffle(pages);
    for (const PageDraw& p : pages) {
      out.insert(out.end(), groups.begin() + p.begin,
                 groups.begin() + p.begin + p.size);
    }
  } else {
    // Unclustered: interleave page groups, preserving within-page order.
    util::SmallVector<int, kInlinePages> live;
    for (int i = 0; i < static_cast<int>(pages.size()); ++i) {
      if (pages[i].size > 0) live.push_back(i);
    }
    while (!live.empty()) {
      int pick = static_cast<int>(
          rng_.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      PageDraw& p = pages[live[pick]];
      out.push_back(groups[p.begin++]);
      if (--p.size == 0) {
        live[pick] = live.back();
        live.pop_back();
      }
    }
  }
}

}  // namespace psoodb::workload
