/// \file jsonl_fields.h
/// Minimal field extraction for the simulator's JSONL sinks, shared by the
/// offline report tools (trace_report, timeline_report). Header-only and
/// free of simulator dependencies, so the tools stay standalone.
///
/// The sinks write flat one-line objects with unique keys, so scanning for
/// `"key":` is unambiguous — no general JSON parser needed.

#ifndef PSOODB_TOOLS_JSONL_FIELDS_H_
#define PSOODB_TOOLS_JSONL_FIELDS_H_

#include <cstddef>
#include <cstdlib>
#include <string>

namespace psoodb::jsonl {

/// Copies the raw value of `"key":` in `line` into `*out`: the contents of a
/// string value without its quotes, or a scalar up to the next ',' or '}'.
/// Returns false when the key is absent or its string value is unclosed.
inline bool FindValue(const std::string& line, const char* key,
                      std::string* out) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t v = pos + needle.size();
  if (v >= line.size()) return false;
  if (line[v] == '"') {  // string value
    const std::size_t end = line.find('"', v + 1);
    if (end == std::string::npos) return false;
    *out = line.substr(v + 1, end - v - 1);
    return true;
  }
  std::size_t end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  *out = line.substr(v, end - v);
  return true;
}

inline double NumField(const std::string& line, const char* key,
                       double def = 0) {
  std::string s;
  if (!FindValue(line, key, &s)) return def;
  return std::atof(s.c_str());
}

inline long long IntField(const std::string& line, const char* key,
                          long long def = -1) {
  std::string s;
  if (!FindValue(line, key, &s)) return def;
  return std::atoll(s.c_str());
}

inline std::string StrField(const std::string& line, const char* key) {
  std::string s;
  FindValue(line, key, &s);
  return s;
}

}  // namespace psoodb::jsonl

#endif  // PSOODB_TOOLS_JSONL_FIELDS_H_
