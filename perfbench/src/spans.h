// In-memory span log for the traced run. Spans are recorded only around the
// benchmark's own calls into the simulator's public API; they are kept in
// memory and written as JSONL once the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(std::string run_id);

  /// Opens a span under `parent` (-1 for a root) and returns its id.
  int Begin(std::string name, int parent);
  /// Closes span `id` and returns its duration in seconds.
  double End(int id);

  /// Seconds covered by span `id` minus the part its direct children cover.
  double SelfSeconds(int id) const;

  /// One JSON object per line: name, start/end seconds since the log was
  /// created, parent, run id, self seconds.
  std::string Jsonl() const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };
  double Now() const;

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. A null log
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->Begin(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
