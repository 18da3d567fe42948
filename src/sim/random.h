/// \file random.h
/// Deterministic random number generation for the simulator.
///
/// Each model component gets its own stream (seeded from a master seed plus a
/// stream id), so adding instrumentation or reordering event processing never
/// perturbs another component's draws — runs are exactly reproducible.

#ifndef PSOODB_SIM_RANDOM_H_
#define PSOODB_SIM_RANDOM_H_

#include <cstdint>
#include <span>
#include <vector>

namespace psoodb::sim {

/// xoshiro256** PRNG with splitmix64 seeding.
class Rng {
 public:
  /// Creates a stream from (seed, stream). Different streams from the same
  /// seed are statistically independent.
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

  /// Uniform 64-bit value.
  std::uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given mean.
  double Exponential(double mean);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Fills `out` with out.size() distinct values drawn uniformly from
  /// [lo, hi] (inclusive). Requires out.size() <= hi - lo + 1. Allocates
  /// nothing for ranges of up to kInlineSampleRange values (a page's object
  /// slots). The sparse case tests each draw against the values drawn so
  /// far, so it is meant for small samples.
  void SampleWithoutReplacement(std::int64_t lo, std::int64_t hi,
                                std::span<std::int64_t> out);

  /// Returns `k` distinct values drawn uniformly from [lo, hi] (inclusive):
  /// the same draws as the form above. Requires k <= hi - lo + 1.
  std::vector<std::int64_t> SampleWithoutReplacement(std::int64_t lo,
                                                     std::int64_t hi,
                                                     std::size_t k);

  /// Ranges up to this size are sampled without heap scratch; it covers a
  /// page's object slots (storage::kMaxObjectsPerPage).
  static constexpr std::size_t kInlineSampleRange = 64;

  /// Fisher-Yates shuffle of a random-access container (std::vector or
  /// util::SmallVector).
  template <typename Container>
  void Shuffle(Container& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(0, i - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace psoodb::sim

#endif  // PSOODB_SIM_RANDOM_H_
