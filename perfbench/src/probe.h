// Host-speed reference probe. Fixed code that calls nothing in the simulator:
// a bounded binary min-heap of 64-bit keys, random reads and writes over a
// private buffer, a hash table and a churning linked list, roughly the mix of
// the simulator's event heap, lock/cache tables and node allocations. Timing
// the probe between simulation slices turns host seconds into a ratio that
// moves far less than raw seconds when the host's speed drifts.
//
// The probe comes in two footprints. When the host slows down, code whose
// data fits in the caches slows more than code that waits on memory, so the
// probe's footprint must match the workload's: small (256 KB buffer, 16 Ki
// table keys) for the 10-client systems, large (32 MB buffer, 1 Mi keys) for
// the 2000-client one. On trial runs of the 2000-client slices the large
// probe halved the spread of the ratio.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

class Probe {
 public:
  /// Allocates the buffer and touches every page of it, so no timed run
  /// pays first-touch page faults.
  explicit Probe(bool large);

  /// Runs the fixed work once and returns its wall seconds.
  double Run();

  /// Seconds one Run() took on the development host (a 4-vCPU Xeon VM);
  /// set-up times are reported at that reference speed.
  double reference_seconds() const { return reference_seconds_; }

  /// Fold of every run's result; printing it keeps the work observable.
  std::uint64_t checksum() const { return checksum_; }

 private:
  const std::uint64_t map_keys_;
  const int ops_;
  const double reference_seconds_;
  std::vector<std::uint64_t> buf_;
  std::vector<std::uint64_t> heap_;
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::list<std::pair<std::uint64_t, std::uint64_t>> list_;
  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
