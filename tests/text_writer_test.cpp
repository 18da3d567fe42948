// The sink writer (src/util/text_writer.h) against its reference: every
// conversion the trace and telemetry sinks use must render exactly what
// printf renders for it, so sink bytes stay the same as printf's would be.

#include "util/text_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "sim/random.h"

namespace psoodb::util {
namespace {

std::string Printf(const char* fmt, double v) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof buf, fmt, v);
  return std::string(buf, static_cast<std::size_t>(n));
}

template <typename... Pieces>
std::string Written(const Pieces&... pieces) {
  std::string out;
  Append(out, pieces...);
  return out;
}

/// Every double conversion the sinks use, checked against snprintf.
void ExpectPrintfBytes(double v) {
  const std::string hex = Printf("%a", v);
  ASSERT_EQ(Written(Fixed{v, 9}), Printf("%.9f", v)) << hex;
  ASSERT_EQ(Written(Fixed{v, 3}), Printf("%.3f", v)) << hex;
  ASSERT_EQ(Written(General{v, 9}), Printf("%.9g", v)) << hex;
}

TEST(TextWriterTest, RandomDoublesMatchPrintf) {
  sim::Rng rng(20260417);
  for (int i = 0; i < 100000; ++i) {
    const double magnitude = std::pow(10.0, rng.Uniform(-12.0, 12.0));
    const double v = (rng.Next() & 1) != 0 ? -magnitude : magnitude;
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(v));
  }
}

TEST(TextWriterTest, ZerosAndDenormalsMatchPrintf) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double normal_min = std::numeric_limits<double>::min();
  for (const double v : {0.0, -0.0, denorm, -denorm, 12345 * denorm,
                         normal_min / 2, -normal_min / 3,
                         std::nextafter(normal_min, 0.0), normal_min}) {
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(v));
  }
}

TEST(TextWriterTest, DecimalRoundingTiesMatchPrintf) {
  // Odd multiples of 2^-4 end in ...d5 at the 4th decimal place and odd
  // multiples of 2^-10 at the 10th: exact ties for "%.3f" and "%.9f".
  for (int j = 1; j < 64; j += 2) {
    for (const double whole : {0.0, 1.0, 7.0, 1234.0, 98765432.0}) {
      for (const double sign : {1.0, -1.0}) {
        ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(sign * (whole + j / 16.0)));
        ASSERT_NO_FATAL_FAILURE(
            ExpectPrintfBytes(sign * (whole + j / 1024.0)));
      }
    }
  }
  // Ten significant digits ending in 5: ties at the 9th significant digit
  // for "%.9g", including the fixed/exponent switch points.
  for (const double v : {1234567.125, 7654321.375, 100000000.5, 999999999.5,
                         0.0001, 0.00001, 1e9, 1e17}) {
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(v));
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(-v));
  }
}

TEST(TextWriterTest, NonFiniteMatchPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {inf, -inf, nan, -nan}) {
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(v));
  }
}

TEST(TextWriterTest, IntegersMatchPrintf) {
  char buf[64];
  for (const int v : {0, 7, -1, std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max()}) {
    std::snprintf(buf, sizeof buf, "%d", v);
    EXPECT_EQ(Written(v), buf);
  }
  for (const long long v : {0LL, -42LL, std::numeric_limits<long long>::min(),
                            std::numeric_limits<long long>::max()}) {
    std::snprintf(buf, sizeof buf, "%lld", v);
    EXPECT_EQ(Written(static_cast<std::int64_t>(v)), buf);
  }
  for (const unsigned long long v :
       {0ULL, 1ULL, std::numeric_limits<unsigned long long>::max()}) {
    std::snprintf(buf, sizeof buf, "%llu", v);
    EXPECT_EQ(Written(static_cast<std::uint64_t>(v)), buf);
  }
  // Narrow fields (trace node/aux) render as the value, not as a character.
  EXPECT_EQ(Written(static_cast<std::int16_t>(-1001)), "-1001");
}

TEST(TextWriterTest, PiecesAppendInOrder) {
  const std::string name(300, 'n');
  std::string out = "{";
  Append(out, "\"name\":\"", name, "\",\"v\":", General{1.5, 9}, ',',
         std::uint64_t{3}, '}');
  EXPECT_EQ(out, "{\"name\":\"" + name + "\",\"v\":1.5,3}");
}

}  // namespace
}  // namespace psoodb::util
