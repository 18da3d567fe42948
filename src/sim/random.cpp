#include "sim/random.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/small_vector.h"

namespace psoodb::sim {

namespace {
std::uint64_t SplitMix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed ^ (0xA3EC647659359ACDULL * (stream + 1));
  for (auto& s : s_) s = SplitMix64(x);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  PSOODB_DCHECK(lo <= hi, "UniformInt range inverted");
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(Next());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::Exponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

void Rng::SampleWithoutReplacement(std::int64_t lo, std::int64_t hi,
                                   std::span<std::int64_t> out) {
  const std::size_t k = out.size();
  const std::uint64_t n = static_cast<std::uint64_t>(hi - lo) + 1;
  PSOODB_CHECK(k <= n, "sample of %llu from a range of %llu",
               static_cast<unsigned long long>(k),
               static_cast<unsigned long long>(n));
  if (k * 3 >= n) {
    // Dense case: partial Fisher-Yates over the whole range.
    util::SmallVector<std::int64_t, kInlineSampleRange> all;
    for (std::int64_t v = lo; v <= hi; ++v) all.push_back(v);
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j =
          static_cast<std::size_t>(UniformInt(i, static_cast<std::int64_t>(n) - 1));
      std::swap(all[i], all[j]);
      out[i] = all[i];
    }
  } else {
    // Sparse case: rejection; the values drawn so far are the seen set.
    for (std::size_t i = 0; i < k;) {
      const std::int64_t v = UniformInt(lo, hi);
      const auto drawn = out.first(i);
      if (std::find(drawn.begin(), drawn.end(), v) == drawn.end()) out[i++] = v;
    }
  }
}

std::vector<std::int64_t> Rng::SampleWithoutReplacement(std::int64_t lo,
                                                        std::int64_t hi,
                                                        std::size_t k) {
  std::vector<std::int64_t> out(k);
  SampleWithoutReplacement(lo, hi, std::span<std::int64_t>(out));
  return out;
}

}  // namespace psoodb::sim
