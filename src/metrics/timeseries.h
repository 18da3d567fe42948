/// \file timeseries.h
/// Deterministic time-series telemetry: a registry of named counters, gauges
/// and windowed histograms sampled on a fixed simulated-time tick. Opt-in via
/// SystemParams::telemetry / PSOODB_TELEMETRY; when off, the registry is
/// never built and every instrumentation site reduces to one pointer test, so
/// simulation results are bit-identical to an untelemetered run.
///
/// Determinism model: the registry itself never schedules simulation events —
/// sampling is *lazy*. A one-partition run calls SampleUpTo(now) after every
/// event; runs with several partitions call it from the window serial phase
/// (all workers parked) keyed on ShardGroup::GlobalNow(). Both clocks are pure
/// functions of the event schedule, and every probe reads partition state in
/// a fixed registration order, so the sampled rows — and the serialized
/// sinks — are byte-identical for any `sim_shards` / worker-thread count.
/// Row timestamps are the tick boundaries; the values are the state at the
/// first deterministic sampling opportunity at-or-after the boundary (the
/// lazy-sampling skew is itself deterministic).
///
/// Track kinds:
///  * gauge   — instantaneous level (queue depth, live events, hit ratio).
///  * counter — cumulative count (commits, windows). Counters reset once, at
///    the warmup/measurement boundary (the summary line's `measure_start`
///    marks it); consumers must clamp negative deltas at that row.
///  * windowed histogram — a (monotone) metrics::Histogram expanded into four
///    scalar sub-tracks `<name>.count/.p50/.p99/.max`, computed from the
///    exact bucket-wise delta since the previous tick (empty window -> 0s).
///
/// Sinks: compact JSONL (meta line, one row per tick, trailing summary line)
/// written alongside the TRACE_* files, and Chrome trace-event counter tracks
/// ("ph":"C") merged into the existing Perfetto output. `tools/timeline_report`
/// analyzes the JSONL sink; docs/OBSERVABILITY.md documents both schemas.

#ifndef PSOODB_METRICS_TIMESERIES_H_
#define PSOODB_METRICS_TIMESERIES_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/histogram.h"

namespace psoodb::metrics {

class TimeSeries {
 public:
  /// Reads one scalar from live simulation state. Probes must be pure
  /// observations: no allocation visible to the simulation, no event
  /// scheduling, no mutation of simulation state.
  using Probe = std::function<double()>;

  /// `tick` > 0: sampling interval in simulated seconds.
  explicit TimeSeries(double tick);
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  // --- Registration (before the first sample) -----------------------------

  void AddGauge(std::string name, Probe probe);
  void AddCounter(std::string name, Probe probe);
  /// Registers the four windowed sub-tracks of `hist` (see file comment).
  /// `hist` must outlive the registry and only ever accumulate (Histogram
  /// Reset at the measurement boundary is tolerated like a counter reset:
  /// the bucket snapshot re-anchors on the first post-reset tick).
  void AddWindowedHistogram(std::string name, const Histogram* hist);

  // --- Sampling (deterministic single-threaded contexts only) --------------

  double tick() const { return tick_; }
  /// Records one row per elapsed tick boundary <= `now`. Cheap when no
  /// boundary passed (one comparison).
  void SampleUpTo(double now) {
    while (now >= next_tick_) SampleOne();
  }
  /// Marks the warmup/measurement boundary (reported in the summary line).
  void MarkMeasureStart(double t) { measure_start_ = t; }

  // --- Programmatic access (psoodb_doctor, tests) --------------------------

  int num_tracks() const { return static_cast<int>(tracks_.size()); }
  const std::string& track_name(int i) const {
    return tracks_[static_cast<std::size_t>(i)].name;
  }
  bool track_is_counter(int i) const {
    return tracks_[static_cast<std::size_t>(i)].is_counter;
  }
  /// Index of the named track, or -1.
  int FindTrack(const std::string& name) const;
  std::size_t num_rows() const { return rows_.size(); }
  double row_time(std::size_t row) const { return rows_[row].t; }
  double value(std::size_t row, int track) const {
    return rows_[row].v[static_cast<std::size_t>(track)];
  }
  double measure_start() const { return measure_start_; }

  // --- Sinks ---------------------------------------------------------------

  /// Run identification written into the JSONL meta line.
  struct Meta {
    std::string protocol;
    int num_clients = 0;
    int num_servers = 0;
    std::uint64_t seed = 0;
    /// Event-loop partitions (0 = one partition).
    int partitions = 0;
  };

  /// Compact JSONL: meta line (schema + track directory), one row per tick
  /// (`{"t":...,"v":[...]}`), one trailing summary line.
  std::string SerializeJsonl(const Meta& meta) const;

  /// Chrome trace-event counter events ("ph":"C", pid 1), one per
  /// (track, tick), as a ",\n"-separated fragment without enclosing array —
  /// trace::Tracer::SerializeChrome splices it into the traceEvents array.
  /// Rows are emitted in time order, so each counter track's timestamps are
  /// monotone in (t, seq) by construction.
  std::string RenderChromeCounters() const;

 private:
  struct Track {
    std::string name;
    bool is_counter = false;
    Probe probe;  ///< null for histogram sub-tracks (computed in SampleOne)
  };
  /// One registered windowed histogram: the bucket snapshot at the previous
  /// tick and the index of its first sub-track (.count).
  struct HistSource {
    const Histogram* hist;
    int first_track;
    std::array<std::uint64_t, Histogram::kBuckets> prev{};
    std::uint64_t prev_count = 0;
  };
  struct Row {
    double t;
    std::vector<double> v;
  };

  void SampleOne();

  const double tick_;
  double next_tick_;
  double measure_start_ = 0;
  bool sealed_ = false;  ///< registration closed by the first sample
  std::vector<Track> tracks_;
  std::vector<HistSource> hists_;
  std::vector<Row> rows_;
};

}  // namespace psoodb::metrics

#endif  // PSOODB_METRICS_TIMESERIES_H_
