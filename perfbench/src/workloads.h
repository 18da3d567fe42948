// The benchmark's workloads and the slice runner. A workload is a chain of
// short, independent, seeded core::System runs ("slices"); slice i of a run
// with seed s uses simulator seed s + i.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "config/params.h"
#include "core/system.h"

namespace perfbench {

namespace config = psoodb::config;
namespace core = psoodb::core;

class SpanLog;

/// Everything needed to build and run one slice.
struct SliceSpec {
  config::Protocol protocol = config::Protocol::kPSAA;
  config::SystemParams sys;
  config::WorkloadParams wl;
  core::RunConfig rc;
  /// Trace + telemetry + history hooks are on; adds the observation checks.
  bool observed = false;
};

struct Workload {
  const char* name;
  /// Slices one run measures per requested second (at least one slice).
  double slices_per_second;
  /// Slice count is rounded up to a multiple of this (protocol cycle length).
  int slice_multiple;
  /// Probe runs before each slice, so probe time stays near 40% of the
  /// slice's own time however long the slice is.
  int probes_per_slice;
  /// Use the large-footprint probe (see probe.h).
  bool large_probe;
  /// Builds slice `index` for simulator seed `seed`. Null for the probe
  /// self-check, whose "slice" is one more probe run.
  SliceSpec (*make)(int index, std::uint64_t seed);
};

/// The benchmark's workloads, plus the probe self-check "probe_null".
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// What one slice measured: host costs plus the deterministic model result.
struct SliceStats {
  double setup_s = 0;     ///< System construction
  double simulate_s = 0;  ///< System::Run
  double teardown_s = 0;  ///< System destruction
  double cpu_s = 0;       ///< process CPU seconds over the slice, all threads
  double wall_s() const { return setup_s + simulate_s + teardown_s; }

  int threads = 1;
  int clients = 0;
  int db_pages = 0;
  double objects_per_txn = 0;   ///< mean references per transaction
  std::size_t live_processes = 0;  ///< partition 0's processes after the run
  /// Events of the whole slice, warmup included. Partitioned runs expose
  /// only partition 0's loop, so this is its count times the partitions.
  double total_events = 0;
  int client_buf_pages = 0;
  int telemetry_tracks = 0;

  core::RunResult result;  ///< sinks (trace/telemetry strings) dropped
  std::size_t trace_bytes = 0;
  std::size_t trace_events = 0;
  std::size_t telemetry_rows = 0;

  bool failed = false;
  std::string why;  ///< first failed check, empty when the slice passed
};

/// CPU seconds of this process so far, all threads.
double ProcessCpuSeconds();

/// Builds, runs and tears down one slice, checking its result. When `log` is
/// non-null, records setup/simulate/teardown spans under `parent`.
SliceStats RunSlice(const SliceSpec& spec, SpanLog* log, int parent);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
