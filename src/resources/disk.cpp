#include "resources/disk.h"

namespace psoodb::resources {

Disk::Disk(sim::Simulation& sim, double min_time, double max_time,
           std::uint64_t seed, std::uint64_t stream)
    : server_(sim),
      min_time_(min_time),
      max_time_(max_time),
      rng_(seed, stream) {}

FifoServer::Awaiter Disk::Access() {
  return server_.Serve(rng_.Uniform(min_time_, max_time_));
}

DiskArray::DiskArray(sim::Simulation& sim, int num_disks, double min_time,
                     double max_time, std::uint64_t seed)
    : pick_rng_(seed, /*stream=*/0xD15C) {
  disks_.reserve(num_disks);
  for (int i = 0; i < num_disks; ++i) {
    disks_.push_back(std::make_unique<Disk>(sim, min_time, max_time, seed,
                                            /*stream=*/0xD15C0 + i));
  }
}

FifoServer::Awaiter DiskArray::Access() {
  const int i = static_cast<int>(
      pick_rng_.UniformInt(0, static_cast<std::int64_t>(disks_.size()) - 1));
  return disks_[i]->Access();
}

double DiskArray::AverageUtilization() const {
  double sum = 0;
  for (const auto& d : disks_) sum += d->Utilization();
  return disks_.empty() ? 0 : sum / static_cast<double>(disks_.size());
}

std::uint64_t DiskArray::TotalRequests() const {
  std::uint64_t sum = 0;
  for (const auto& d : disks_) sum += d->requests();
  return sum;
}

int DiskArray::QueueLength() const {
  int sum = 0;
  for (const auto& d : disks_) sum += d->queue_length();
  return sum;
}

void DiskArray::ResetStats() {
  for (auto& d : disks_) d->ResetStats();
}

}  // namespace psoodb::resources
