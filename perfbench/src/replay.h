// Outside-in layer replays for the traced run. Each replay drives one layer's
// public API with an operation stream sized from the workload and reports the
// host cost of one operation. Replay cost x operations per commit estimates a
// layer's share of a commit's host time; the replays cannot see inside the
// program, so what they miss is reported as unattributed.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>

#include "workloads.h"

namespace perfbench {

/// Workload-derived sizes for the replays.
struct ReplaySizes {
  std::size_t live_processes = 1;  ///< concurrent simulation processes
  int client_buf_pages = 1;        ///< client LRU capacity
  double cache_hit_ratio = 0;      ///< measured client-cache hit ratio
  int telemetry_tracks = 1;        ///< tracks in one telemetry row
};

/// Host cost per operation, one field per replayed layer.
struct ReplayCosts {
  double sim_ns_per_event = 0;     ///< Spawn/Delay/ScheduleCallback/Cancel
  double lock_ns = 0;              ///< one page/object X acquire + release
  double detector_ns = 0;          ///< one OnWait + its ClearWaits
  double lru_ns = 0;               ///< one Get (+ Insert on a miss)
  double txn_us = 0;               ///< one NextTransaction
  double cpu_ns = 0;               ///< one Cpu::User or Cpu::System request
  double emit_ns = 0;              ///< one Tracer::Emit plus its serialisation
  double sample_us = 0;            ///< one TimeSeries row
};

/// Runs every replay once, each under a `layer.<module>` span of `parent`.
ReplayCosts RunReplays(const SliceSpec& spec, const ReplaySizes& sizes,
                       SpanLog* log, int parent);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
