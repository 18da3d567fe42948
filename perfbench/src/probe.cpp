#include "probe.h"

#include <algorithm>
#include <chrono>
#include <functional>

namespace perfbench {
namespace {

constexpr std::size_t kHeapBound = 50'000;
constexpr std::size_t kListBound = 4'096;

std::uint64_t SplitMix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Probe::Probe(bool large)
    : map_keys_(large ? 1u << 20 : 1u << 14),
      ops_(large ? 120'000 : 180'000),
      reference_seconds_(large ? 0.065 : 0.025),
      buf_((large ? 32u << 20 : 256u << 10) / sizeof(std::uint64_t)) {
  std::uint64_t s = 1;
  for (std::uint64_t& w : buf_) w = SplitMix(s);
  heap_.reserve(kHeapBound + 1);
}

double Probe::Run() {
  const auto t0 = std::chrono::steady_clock::now();
  heap_.clear();
  map_.clear();
  list_.clear();
  std::uint64_t s = 0x5eed;
  std::uint64_t acc = 0;
  const auto cmp = std::greater<std::uint64_t>();
  for (int i = 0; i < ops_; ++i) {
    const std::uint64_t x = SplitMix(s);
    heap_.push_back(x);
    std::push_heap(heap_.begin(), heap_.end(), cmp);
    if (heap_.size() > kHeapBound) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      acc += heap_.back();
      heap_.pop_back();
    }
    std::uint64_t& w = buf_[x % buf_.size()];
    w += heap_.front();
    acc ^= buf_[(x >> 32) % buf_.size()];
    // Hash-table probe, insert or erase, like the lock and cache tables.
    const std::uint64_t k = (x >> 20) % map_keys_;
    if (auto it = map_.find(k); it == map_.end()) {
      map_.emplace(k, x);
    } else {
      acc += it->second;
      if (x & 1) map_.erase(it);
    }
    // Node churn and splices, like the LRU lists and coroutine frames.
    list_.emplace_back(x, acc);
    if (list_.size() > kListBound) list_.pop_front();
    if ((x & 7) == 0) list_.splice(list_.end(), list_, list_.begin());
  }
  checksum_ += acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
