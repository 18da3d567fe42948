/// \file disk.h
/// Server disk model: FIFO request queue with uniformly distributed access
/// times (MinDiskTime..MaxDiskTime), per Section 4.1. A DiskArray spreads
/// requests uniformly across the server's disks, as in the paper.

#ifndef PSOODB_RESOURCES_DISK_H_
#define PSOODB_RESOURCES_DISK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "resources/fifo_server.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace psoodb::resources {

/// A single disk with FIFO scheduling and uniform access time.
class Disk {
 public:
  Disk(sim::Simulation& sim, double min_time, double max_time,
       std::uint64_t seed, std::uint64_t stream);

  /// Performs one I/O (read or write are indistinguishable in the model).
  /// Draws the access time at the call and returns the disk's FIFO wait,
  /// which must be awaited at once from a simulation process.
  [[nodiscard]] FifoServer::Awaiter Access();

  double Utilization() const { return server_.Utilization(); }
  void ResetStats() { server_.ResetStats(); }
  std::uint64_t requests() const { return server_.requests(); }
  int queue_length() const { return server_.queue_length(); }

 private:
  FifoServer server_;
  double min_time_;
  double max_time_;
  sim::Rng rng_;
};

/// The server's set of disks; each request goes to a uniformly chosen disk.
class DiskArray {
 public:
  DiskArray(sim::Simulation& sim, int num_disks, double min_time,
            double max_time, std::uint64_t seed);

  /// Performs one I/O on a uniformly chosen disk, drawn at the call (see
  /// Disk::Access).
  [[nodiscard]] FifoServer::Awaiter Access();

  int size() const { return static_cast<int>(disks_.size()); }
  Disk& disk(int i) { return *disks_[i]; }
  double AverageUtilization() const;
  std::uint64_t TotalRequests() const;
  /// Requests queued or in service across all disks right now (the trace
  /// layer stamps this onto disk I/O events as the queue depth).
  int QueueLength() const;
  void ResetStats();

 private:
  std::vector<std::unique_ptr<Disk>> disks_;
  sim::Rng pick_rng_;
};

}  // namespace psoodb::resources

#endif  // PSOODB_RESOURCES_DISK_H_
