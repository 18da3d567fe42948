/// \file text_writer.h
/// The one formatter behind the trace and telemetry sinks: appends string
/// pieces, integers and doubles straight into a std::string, with no length
/// limit on any piece and no format-string parsing.
///
/// Doubles must name their conversion. `Fixed{v, p}` and `General{v, p}` go
/// through std::to_chars with an explicit precision, which the standard
/// defines as printf's "%.<p>f" / "%.<p>g" output in the "C" locale, so
///   Append(out, Fixed{x, 9})    == "%.9f"
///   Append(out, Fixed{x, 3})    == "%.3f"
///   Append(out, General{x, 9})  == "%.9g"
/// byte for byte (tests/text_writer_test.cpp checks this against snprintf).
/// Integers of any width render like "%d" / "%lld" / "%llu".
///
///   Append(out, "{\"t\":", Fixed{e.t, 9}, ",\"node\":", e.node, "}\n");

#ifndef PSOODB_UTIL_TEXT_WRITER_H_
#define PSOODB_UTIL_TEXT_WRITER_H_

#include <charconv>
#include <concepts>
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

/// Room for any double in fixed notation (DBL_MAX has 309 integer digits)
/// with a sign, a point and up to kMaxPrecision fraction digits.
inline constexpr int kMaxPrecision = 17;
inline constexpr int kBufferBytes = 1 + 309 + 1 + kMaxPrecision;

inline void AppendDouble(std::string& out, double v, std::chars_format fmt,
                         int precision) {
  PSOODB_DCHECK(precision >= 0 && precision <= kMaxPrecision);
  char buf[kBufferBytes];
  const auto [end, ec] = std::to_chars(buf, buf + kBufferBytes, v, fmt,
                                       precision);
  PSOODB_CHECK(ec == std::errc(), "to_chars overflow (precision %d)",
               precision);
  out.append(buf, end);
}

inline void AppendPiece(std::string& out, std::string_view s) {
  out.append(s);
}

inline void AppendPiece(std::string& out, char c) { out.push_back(c); }

template <std::integral T>
void AppendPiece(std::string& out, T v) {
  static_assert(sizeof(T) <= 8, "wider than 64 bits");
  char buf[24];  // 20 digits of UINT64_MAX, or a sign and 19 digits
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

inline void AppendPiece(std::string& out, Fixed f) {
  AppendDouble(out, f.value, std::chars_format::fixed, f.precision);
}

inline void AppendPiece(std::string& out, General g) {
  AppendDouble(out, g.value, std::chars_format::general, g.precision);
}

/// A bare double has no printf-equivalent default here: wrap it in Fixed or
/// General so the sink's conversion is spelled out at the call site.
void AppendPiece(std::string& out, double v) = delete;

}  // namespace text_writer_internal

/// Appends each piece to `out`, in order.
template <typename... Pieces>
void Append(std::string& out, const Pieces&... pieces) {
  (text_writer_internal::AppendPiece(out, pieces), ...);
}

}  // namespace psoodb::util

#endif  // PSOODB_UTIL_TEXT_WRITER_H_
