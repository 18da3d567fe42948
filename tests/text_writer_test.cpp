// The sink writer (src/util/text_writer.h) against its reference: every
// conversion the trace and telemetry sinks use must render exactly what
// printf renders for it, so sink bytes stay the same as printf's would be.

#include "util/text_writer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>

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

/// Every double conversion the sinks use, plus the exact path's precision
/// ends (0, with no point, and its maximum, 9) and one between, checked
/// against snprintf.
void ExpectPrintfBytes(double v) {
  const std::string hex = Printf("%a", v);
  ASSERT_EQ(Written(Fixed{v, 9}), Printf("%.9f", v)) << hex;
  ASSERT_EQ(Written(Fixed{v, 3}), Printf("%.3f", v)) << hex;
  ASSERT_EQ(Written(Fixed{v, 0}), Printf("%.0f", v)) << hex;
  ASSERT_EQ(Written(Fixed{v, 6}), Printf("%.6f", v)) << hex;
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

TEST(TextWriterTest, RandomBitsDyadicsAndSimTimesMatchPrintf) {
  sim::Rng rng(20261018);
  for (int i = 0; i < 30000; ++i) {
    // Any bit pattern: every exponent, both signs, NaNs and infinities.
    ASSERT_NO_FATAL_FAILURE(
        ExpectPrintfBytes(std::bit_cast<double>(rng.Next())));
    // Dyadic fractions down to 2^-79: exact binary values whose decimal
    // expansion runs past every printed digit, including exact ties.
    const double dyadic = std::ldexp(
        static_cast<double>(rng.UniformInt(-(std::int64_t{1} << 53),
                                           std::int64_t{1} << 53)),
        static_cast<int>(rng.UniformInt(-132, 0)));
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(dyadic));
    // Simulated times (whole microseconds as seconds) and their Chrome
    // microsecond form.
    const double t = static_cast<double>(rng.UniformInt(0, 10'000'000'000)) *
                     1e-6;
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(t));
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(t * 1e6));
    // Integers in +-1e9 and multiples of 1/1024.
    const auto k = rng.UniformInt(-1'000'000'000, 1'000'000'000);
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(static_cast<double>(k)));
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(static_cast<double>(k) / 1024));
  }
}

TEST(TextWriterTest, IntegralGeneralValuesMatchPrintf) {
  for (const double v : {0.0, 1.0, 2.0, 9.0, 10.0, 999999999.0, 1e9, 1e9 + 1,
                         9007199254740992.0 /* 2^53 */, 1e17, 1e300}) {
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(v));
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(-v));
  }
  for (std::int64_t k = -2000; k <= 2000; ++k) {
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(static_cast<double>(k)));
  }
  // Integral values one step inside 10^p at every General precision.
  for (int p = 0; p <= 17; ++p) {
    const double edge = std::pow(10.0, p);
    for (const double v : {edge - 1, edge, std::nextafter(edge, 0.0)}) {
      char fmt[8];
      std::snprintf(fmt, sizeof fmt, "%%.%dg", p);
      EXPECT_EQ(Written(General{v, p}), Printf(fmt, v)) << p;
      EXPECT_EQ(Written(General{-v, p}), Printf(fmt, -v)) << p;
    }
  }
}

TEST(TextWriterTest, FixedValuesAroundTheIntegerPathEdgeMatchPrintf) {
  // |v| * 10^p below 2^63 takes the integer path, at or above it falls
  // back: walk a few doubles either side of the edge at each precision.
  for (int p = 0; p <= 9; ++p) {
    char fmt[8];
    std::snprintf(fmt, sizeof fmt, "%%.%df", p);
    const double edge = std::ldexp(1.0, 63) / std::pow(10.0, p);
    double below = edge;
    double above = edge;
    for (int step = 0; step < 8; ++step) {
      for (const double v : {below, above, -below, -above}) {
        EXPECT_EQ(Written(Fixed{v, p}), Printf(fmt, v)) << p << " " << v;
      }
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1e300);
    }
  }
}

TEST(TextWriterTest, SubnormalsMatchPrintf) {
  sim::Rng rng(7);
  const std::uint64_t max_fraction = (std::uint64_t{1} << 52) - 1;
  for (int i = 0; i < 10000; ++i) {
    // Exponent field 0: every significand is a subnormal.
    const std::uint64_t bits = rng.Next() & max_fraction;
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(std::bit_cast<double>(bits)));
    ASSERT_NO_FATAL_FAILURE(ExpectPrintfBytes(-std::bit_cast<double>(bits)));
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

  // A piece longer than the whole stack buffer, between buffered pieces.
  const std::string huge(3 * text_writer_internal::kLineBytes + 7, 'h');
  out = "<";
  Append(out, 'a', huge, Fixed{2.5, 3}, huge, -7);
  EXPECT_EQ(out, "<a" + huge + "2.500" + huge + "-7");

  // One call whose buffered pieces (each short enough to be copied into
  // the buffer) fill it several times over.
  const std::string p(text_writer_internal::kDirectBytes, 'p');
  out.clear();
  Append(out, p, 1, p, Fixed{0.125, 9}, p, General{1e-3, 9}, p,
         std::int64_t{-42}, p, p, '!', p, p, p, Fixed{-1e20, 3}, p, p, p, p,
         p, p, p, p, p, p, p, p);
  std::string expected = p + "1" + p + "0.125000000" + p + "0.001" + p +
                         "-42" + p + p + "!" + p + p + p +
                         "-100000000000000000000.000";
  for (int i = 0; i < 12; ++i) expected += p;
  EXPECT_EQ(out, expected);
  EXPECT_GT(out.size(), 4 * text_writer_internal::kLineBytes);

  // Empty pieces write nothing.
  out = "[";
  Append(out, "", std::string(), std::string_view(), 5, "");
  EXPECT_EQ(out, "[5");
}

}  // namespace
}  // namespace psoodb::util
