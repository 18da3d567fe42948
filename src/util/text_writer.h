/// \file text_writer.h
/// The one formatter behind the trace and telemetry sinks: appends string
/// pieces, integers and doubles to a std::string, with no length limit on
/// any piece and no format-string parsing.
///
/// Each Append call formats its pieces through a raw pointer into one
/// stack buffer and appends that to `out` once, so a sink line costs one
/// std::string::append. The buffer is flushed early only when it fills; a
/// string piece longer than a quarter of it goes straight to `out`.
///
/// Doubles must name their conversion, and render exactly as printf's
/// "%.<p>f" / "%.<p>g" in the "C" locale:
///   Append(out, Fixed{x, 9})    == "%.9f"
///   Append(out, Fixed{x, 3})    == "%.3f"
///   Append(out, General{x, 9})  == "%.9g"
/// byte for byte (tests/text_writer_test.cpp checks this against snprintf).
/// The common cases take exact integer paths: `Fixed` at precision <= 9
/// computes round-half-even(|x| * 10^p) with 128-bit integer arithmetic and
/// prints it with a point inserted; `General` of an integral x with
/// |x| < 10^p prints the integer. Everything else (NaN, infinities, scaled
/// results of 2^63 or more, non-integral `General` values) goes through
/// std::to_chars with an explicit precision, which the standard defines as
/// printf's output. Integers of any width render like "%d" / "%lld" /
/// "%llu".
///
///   Append(out, "{\"t\":", Fixed{e.t, 9}, ",\"node\":", e.node, "}\n");

#ifndef PSOODB_UTIL_TEXT_WRITER_H_
#define PSOODB_UTIL_TEXT_WRITER_H_

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>

#include "util/check.h"

namespace psoodb::util {

/// A double rendered like printf's "%.<precision>f".
struct Fixed {
  double value;
  int precision;
};

/// A double rendered like printf's "%.<precision>g".
struct General {
  double value;
  int precision;
};

namespace text_writer_internal {

/// Stack room for one Append call. Every sink line fits, so a line is one
/// append to the output string.
inline constexpr std::size_t kLineBytes = 512;
/// String pieces longer than this skip the stack buffer.
inline constexpr std::size_t kDirectBytes = kLineBytes / 4;

inline constexpr int kMaxPrecision = 17;
/// Room for any double in fixed notation (DBL_MAX has 309 integer digits)
/// with a sign, a point and up to kMaxPrecision fraction digits.
inline constexpr std::size_t kDoubleBytes = 1 + 309 + 1 + kMaxPrecision;
/// Room for an integer path's output: a sign, up to 20 digits and a point.
inline constexpr std::size_t kIntegerBytes = 24;
/// `Fixed` precisions the 128-bit path covers: |x| * 10^9 < 2^83 for every
/// 53-bit significand.
inline constexpr int kMaxExactPrecision = 9;

inline constexpr std::array<std::uint64_t, kMaxPrecision + 1> kPow10 = [] {
  std::array<std::uint64_t, kMaxPrecision + 1> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

/// Append and its hot-path pieces are forced inline. Out of line, each
/// literal piece costs a strlen and a variable-length copy; inlined into
/// the caller, its length folds to a constant.
#define PSOODB_TEXT_INLINE [[gnu::always_inline]] inline

/// The stack buffer of one Append call.
class LineBuffer {
 public:
  explicit LineBuffer(std::string& out) : out_(out) {}
  LineBuffer(const LineBuffer&) = delete;
  LineBuffer& operator=(const LineBuffer&) = delete;

  /// A write pointer with at least `n` (<= kLineBytes) bytes of room;
  /// report the end of what was written with Advance.
  PSOODB_TEXT_INLINE char* Room(std::size_t n) {
    if (static_cast<std::size_t>(buf_ + kLineBytes - pos_) < n) Flush();
    return pos_;
  }
  PSOODB_TEXT_INLINE void Advance(char* end) { pos_ = end; }

  PSOODB_TEXT_INLINE void Put(std::string_view s) {
    if (s.size() > kDirectBytes) {
      Flush();
      out_.append(s);
      return;
    }
    if (s.empty()) return;  // data() may be null
    char* p = Room(s.size());
    std::memcpy(p, s.data(), s.size());
    pos_ = p + s.size();
  }

  void Flush() {
    out_.append(buf_, pos_);
    pos_ = buf_;
  }

 private:
  std::string& out_;
  char* pos_ = buf_;
  char buf_[kLineBytes];
};

/// Writes `v` through std::to_chars at an explicit precision.
inline void PutConverted(LineBuffer& b, double v, std::chars_format fmt,
                         int precision) {
  char* p = b.Room(kDoubleBytes);
  const auto [end, ec] = std::to_chars(p, p + kDoubleBytes, v, fmt,
                                       precision);
  PSOODB_CHECK(ec == std::errc(), "to_chars overflow (precision %d)",
               precision);
  b.Advance(end);
}

/// Sets `*n` to round-half-even(|v| * 10^precision), computed exactly from
/// v = m * 2^e, and returns true; returns false for NaN, infinities and
/// results of 2^63 or more. Requires precision <= kMaxExactPrecision.
PSOODB_TEXT_INLINE bool ScaledMagnitude(double v, int precision,
                                        std::uint64_t* n) {
  using U128 = unsigned __int128;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0x7ff) return false;
  std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
  int e = -1074;  // subnormal
  if (biased != 0) {
    m |= std::uint64_t{1} << 52;
    e = biased - 1075;
  }
  const U128 x = static_cast<U128>(m) * kPow10[precision];  // < 2^83
  U128 q = 0;
  if (e >= 0) {
    if (e > 63 || (x >> (63 - e)) != 0) return false;
    q = x << e;
  } else if (e > -128) {  // else x / 2^-e is below one half: q stays 0
    const int s = -e;
    q = x >> s;
    const U128 rest = x - (q << s);
    const U128 half = U128{1} << (s - 1);
    if (rest > half || (rest == half && (q & 1) != 0)) ++q;
  }
  if ((q >> 63) != 0) return false;
  *n = static_cast<std::uint64_t>(q);
  return true;
}

PSOODB_TEXT_INLINE void Put(LineBuffer& b, Fixed f) {
  const double v = f.value;
  const int precision = f.precision;
  PSOODB_DCHECK(precision >= 0 && precision <= kMaxPrecision);
  std::uint64_t n = 0;
  if (static_cast<unsigned>(precision) > kMaxExactPrecision ||
      !ScaledMagnitude(v, precision, &n)) {
    PutConverted(b, v, std::chars_format::fixed, precision);
    return;
  }
  // printf writes the sign of -0.0 and of negatives that round to zero.
  char* p = b.Room(kIntegerBytes);
  if (std::signbit(v)) *p++ = '-';
  const std::uint64_t scale = kPow10[precision];
  p = std::to_chars(p, p + 20, n / scale).ptr;
  if (precision > 0) {
    *p++ = '.';
    std::uint64_t fraction = n % scale;
    for (int i = precision - 1; i >= 0; --i) {
      p[i] = static_cast<char>('0' + fraction % 10);
      fraction /= 10;
    }
    p += precision;
  }
  b.Advance(p);
}

PSOODB_TEXT_INLINE void Put(LineBuffer& b, General g) {
  const double v = g.value;
  const int precision = g.precision;
  PSOODB_DCHECK(precision >= 0 && precision <= kMaxPrecision);
  // An integral value below 10^p has at most p significant digits, so
  // "%.<p>g" prints its digits with no point and no exponent.
  const double magnitude = std::fabs(v);
  if (static_cast<unsigned>(precision) <= kMaxPrecision &&
      magnitude < static_cast<double>(kPow10[precision])) {
    const auto n = static_cast<std::uint64_t>(magnitude);
    if (static_cast<double>(n) == magnitude) {
      char* p = b.Room(kIntegerBytes);
      if (std::signbit(v)) *p++ = '-';
      b.Advance(std::to_chars(p, p + 20, n).ptr);
      return;
    }
  }
  PutConverted(b, v, std::chars_format::general, precision);
}

PSOODB_TEXT_INLINE void Put(LineBuffer& b, std::string_view s) { b.Put(s); }

PSOODB_TEXT_INLINE void Put(LineBuffer& b, char c) {
  char* p = b.Room(1);
  *p = c;
  b.Advance(p + 1);
}

template <std::integral T>
PSOODB_TEXT_INLINE void Put(LineBuffer& b, T v) {
  static_assert(sizeof(T) <= 8, "wider than 64 bits");
  char* p = b.Room(kIntegerBytes);
  b.Advance(std::to_chars(p, p + kIntegerBytes, v).ptr);
}

/// A bare double has no printf-equivalent default here: wrap it in Fixed or
/// General so the sink's conversion is spelled out at the call site.
void Put(LineBuffer& b, double v) = delete;

}  // namespace text_writer_internal

/// Appends the pieces to `out`, in order, with one append for the call
/// (more only when they overflow the stack buffer).
template <typename... Pieces>
PSOODB_TEXT_INLINE void Append(std::string& out, const Pieces&... pieces) {
  text_writer_internal::LineBuffer b(out);
  (text_writer_internal::Put(b, pieces), ...);
  b.Flush();
}

#undef PSOODB_TEXT_INLINE

}  // namespace psoodb::util

#endif  // PSOODB_UTIL_TEXT_WRITER_H_
