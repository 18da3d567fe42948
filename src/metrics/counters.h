/// \file counters.h
/// Event counters accumulated during a simulation run. These back the
/// auxiliary metrics the paper analyzes (per-transaction message counts,
/// lock waits, restart rates, utilizations; Section 5.1).

#ifndef PSOODB_METRICS_COUNTERS_H_
#define PSOODB_METRICS_COUNTERS_H_

#include <cstdint>

namespace psoodb::metrics {

struct Counters {
  // Transactions.
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t deadlocks = 0;

  // Messages (each counted once at send time).
  std::uint64_t msgs_total = 0;
  std::uint64_t msgs_data = 0;     ///< messages carrying pages/objects
  std::uint64_t msgs_control = 0;  ///< everything else
  std::uint64_t bytes_sent = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t callbacks_sent = 0;
  std::uint64_t callbacks_blocked = 0;  ///< answered "in use"
  std::uint64_t callback_page_purges = 0;
  std::uint64_t callback_object_marks = 0;
  std::uint64_t deescalations = 0;      ///< PS-AA page lock de-escalations
  std::uint64_t page_lock_grants = 0;   ///< adaptive write granted at page level
  std::uint64_t object_lock_grants = 0; ///< adaptive write granted at object level
  std::uint64_t eviction_notices = 0;

  // Client cache.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t unavailable_rerequests = 0;  ///< cached but marked unavailable
  /// Always 0: a dirty item stays pinned until its transaction ends, so no
  /// client evicts one. Kept as a BENCH JSON field.
  std::uint64_t dirty_evictions = 0;

  // Server storage.
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t log_writes = 0;
  std::uint64_t merges = 0;          ///< page-copy merge operations
  std::uint64_t merged_objects = 0;  ///< objects merged across all merges
  std::uint64_t redo_objects = 0;    ///< objects replayed (redo-at-server)
  std::uint64_t token_transfers = 0; ///< write-token page handoffs (PS-WT)
  std::uint64_t page_overflows = 0;  ///< merges that overflowed a page
  std::uint64_t forwards = 0;        ///< objects forwarded after overflow

  // Concurrency control.
  std::uint64_t lock_waits = 0;

  // Correctness (must stay zero; see SystemContext::CheckCacheValidity).
  std::uint64_t validity_violations = 0;

  void Reset() { *this = Counters{}; }

  /// Field-wise accumulation (partitioned runs merge per-partition counters).
  void Add(const Counters& o) {
    commits += o.commits;
    aborts += o.aborts;
    deadlocks += o.deadlocks;
    msgs_total += o.msgs_total;
    msgs_data += o.msgs_data;
    msgs_control += o.msgs_control;
    bytes_sent += o.bytes_sent;
    read_requests += o.read_requests;
    write_requests += o.write_requests;
    callbacks_sent += o.callbacks_sent;
    callbacks_blocked += o.callbacks_blocked;
    callback_page_purges += o.callback_page_purges;
    callback_object_marks += o.callback_object_marks;
    deescalations += o.deescalations;
    page_lock_grants += o.page_lock_grants;
    object_lock_grants += o.object_lock_grants;
    eviction_notices += o.eviction_notices;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    unavailable_rerequests += o.unavailable_rerequests;
    dirty_evictions += o.dirty_evictions;
    disk_reads += o.disk_reads;
    disk_writes += o.disk_writes;
    log_writes += o.log_writes;
    merges += o.merges;
    merged_objects += o.merged_objects;
    redo_objects += o.redo_objects;
    token_transfers += o.token_transfers;
    page_overflows += o.page_overflows;
    forwards += o.forwards;
    lock_waits += o.lock_waits;
    validity_violations += o.validity_violations;
  }
};

}  // namespace psoodb::metrics

#endif  // PSOODB_METRICS_COUNTERS_H_
