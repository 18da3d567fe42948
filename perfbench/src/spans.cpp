#include "spans.h"

#include <cstdio>
#include <utility>

namespace perfbench {

SpanLog::SpanLog(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::Begin(std::string name, int parent) {
  spans_.push_back({std::move(name), Now(), 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::End(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = Now();
  return s.end - s.start;
}

double SpanLog::SelfSeconds(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  double self = s.end - s.start;
  // Children are opened after their parent, so only later ids can be children.
  for (std::size_t c = static_cast<std::size_t>(id) + 1; c < spans_.size();
       ++c) {
    if (spans_[c].parent == id) self -= spans_[c].end - spans_[c].start;
  }
  return self;
}

std::string SpanLog::Jsonl() const {
  std::string out;
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"run\":\"%s\",\"self\":%.9f}\n",
                  i, s.name.c_str(), s.start, s.end, s.parent, run_id_.c_str(),
                  SelfSeconds(static_cast<int>(i)));
    out += line;
  }
  return out;
}

}  // namespace perfbench
