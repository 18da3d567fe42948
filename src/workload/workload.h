/// \file workload.h
/// Transaction workload generation (paper Section 4.2). Each client has a
/// TransactionSource that produces strings of object references: TransSize
/// distinct pages per transaction, PageLocality objects per page, hot/cold
/// region selection, per-region update probabilities, and clustered or
/// unclustered reference ordering. Object ids refer to the *dense* home
/// layout; physical placement (possibly interleaved) is resolved by the
/// ObjectLayout at access time.

#ifndef PSOODB_WORKLOAD_WORKLOAD_H_
#define PSOODB_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "config/params.h"
#include "sim/random.h"
#include "storage/types.h"
#include "util/small_vector.h"

namespace psoodb::workload {

/// One object reference. A write access implies a read of the object first
/// (its client CPU cost is doubled; Section 4.2).
struct AccessOp {
  storage::ObjectId oid;
  bool is_write;
};

/// Reference string of one transaction.
using ReferenceString = std::vector<AccessOp>;

/// Generates transactions for one client.
class TransactionSource {
 public:
  TransactionSource(const config::WorkloadParams& workload,
                    const config::SystemParams& sys, storage::ClientId client,
                    std::uint64_t seed);

  /// Produces the next transaction's reference string.
  ReferenceString NextTransaction();

  /// Writes the next transaction's reference string into `out` (replacing
  /// its contents). A client reuses one string across its transactions: a
  /// region workload reserves its largest transaction on the first call, so
  /// the string is allocated once, and the per-call scratch lives on the
  /// stack and covers every paper workload.
  void NextTransaction(ReferenceString& out);

  const std::vector<config::RegionSpec>& regions() const { return *regions_; }
  std::uint64_t transactions_generated() const { return ordinal_; }

 private:
  /// One chosen page: its region, then the span [begin, begin + size) of
  /// its object references in the page-order scratch.
  struct PageDraw {
    storage::PageId page;
    int region;
    int begin;
    int size;
  };
  /// Inline capacities of the per-call scratch: the paper's largest
  /// transactions touch 30 pages (low locality) and 210 objects (30 pages
  /// x 7); bigger ones spill to the heap.
  static constexpr std::size_t kInlinePages = 32;
  static constexpr std::size_t kInlineRefs = 256;
  using PageDraws = util::SmallVector<PageDraw, kInlinePages>;

  /// Appends `n` distinct pages chosen according to the region
  /// probabilities to `chosen` (fewer if the database runs out).
  void ChoosePages(int n, PageDraws& chosen);

  const config::WorkloadParams& workload_;
  const config::SystemParams& sys_;
  const std::vector<config::RegionSpec>* regions_;  // this client's regions
  storage::ClientId client_;
  std::uint64_t ordinal_ = 0;
  sim::Rng rng_;
};

}  // namespace psoodb::workload

#endif  // PSOODB_WORKLOAD_WORKLOAD_H_
