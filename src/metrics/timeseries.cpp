#include "metrics/timeseries.h"

#include <string_view>

#include "util/check.h"
#include "util/text_writer.h"

namespace psoodb::metrics {

namespace {

using util::Append;
using util::Fixed;
using util::General;

/// Nearest-rank percentile over a bucket-count delta (the window's samples).
/// Reports the bucket's representative value; no [min, max] clamping — the
/// window's extremes are not tracked (Histogram min/max are cumulative).
double DeltaPercentile(const std::array<std::uint64_t, Histogram::kBuckets>& d,
                       std::uint64_t count, double p) {
  if (count == 0) return 0.0;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(p * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    seen += d[static_cast<std::size_t>(i)];
    if (seen > rank) return Histogram::BucketValue(i);
  }
  return Histogram::BucketValue(Histogram::kBuckets - 1);
}

}  // namespace

TimeSeries::TimeSeries(double tick) : tick_(tick), next_tick_(tick) {
  PSOODB_CHECK(tick > 0, "telemetry tick must be > 0 (got %g)", tick);
}

void TimeSeries::AddGauge(std::string name, Probe probe) {
  PSOODB_CHECK(!sealed_, "telemetry tracks must be registered before sampling");
  tracks_.push_back(Track{std::move(name), /*is_counter=*/false,
                          std::move(probe)});
}

void TimeSeries::AddCounter(std::string name, Probe probe) {
  PSOODB_CHECK(!sealed_, "telemetry tracks must be registered before sampling");
  tracks_.push_back(Track{std::move(name), /*is_counter=*/true,
                          std::move(probe)});
}

void TimeSeries::AddWindowedHistogram(std::string name, const Histogram* hist) {
  PSOODB_CHECK(!sealed_, "telemetry tracks must be registered before sampling");
  HistSource src;
  src.hist = hist;
  src.first_track = static_cast<int>(tracks_.size());
  hists_.push_back(src);
  for (const char* sub : {".count", ".p50", ".p99", ".max"}) {
    // The sub-tracks are per-window aggregates, not cumulative: gauges.
    tracks_.push_back(Track{name + sub, /*is_counter=*/false, nullptr});
  }
}

int TimeSeries::FindTrack(const std::string& name) const {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void TimeSeries::SampleOne() {
  sealed_ = true;
  Row row;
  row.t = next_tick_;
  next_tick_ += tick_;
  row.v.resize(tracks_.size(), 0.0);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].probe) row.v[i] = tracks_[i].probe();
  }
  for (HistSource& h : hists_) {
    std::array<std::uint64_t, Histogram::kBuckets> delta;
    std::uint64_t count = 0;
    const std::uint64_t total = h.hist->count();
    const bool was_reset = total < h.prev_count;  // measurement-boundary Reset
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t cur = h.hist->bucket(b);
      const std::uint64_t prev =
          was_reset ? 0 : h.prev[static_cast<std::size_t>(b)];
      delta[static_cast<std::size_t>(b)] = cur - prev;
      count += cur - prev;
      h.prev[static_cast<std::size_t>(b)] = cur;
    }
    h.prev_count = total;
    const std::size_t base = static_cast<std::size_t>(h.first_track);
    row.v[base] = static_cast<double>(count);
    row.v[base + 1] = DeltaPercentile(delta, count, 0.50);
    row.v[base + 2] = DeltaPercentile(delta, count, 0.99);
    double max = 0.0;
    for (int b = Histogram::kBuckets - 1; b >= 0; --b) {
      if (delta[static_cast<std::size_t>(b)] > 0) {
        max = Histogram::BucketValue(b);
        break;
      }
    }
    row.v[base + 3] = max;
  }
  rows_.push_back(std::move(row));
}

std::string TimeSeries::SerializeJsonl(const Meta& meta) const {
  std::string out;
  out.reserve(rows_.size() * (tracks_.size() * 12 + 24) + 1024);
  Append(out, "{\"psoodb_telemetry\":1,\"protocol\":\"", meta.protocol,
         "\",\"clients\":", meta.num_clients, ",\"servers\":", meta.num_servers,
         ",\"seed\":", meta.seed, ",\"tick\":", General{tick_, 9},
         ",\"partitions\":", meta.partitions, ",\"tracks\":[");
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    Append(out, i == 0 ? "{\"name\":\"" : ",{\"name\":\"", tracks_[i].name,
           "\",\"kind\":\"", tracks_[i].is_counter ? "counter" : "gauge",
           "\"}");
  }
  out += "]}\n";
  for (const Row& row : rows_) {
    Append(out, "{\"t\":", General{row.t, 9}, ",\"v\":[");
    std::string_view sep;
    for (const double v : row.v) {
      Append(out, sep, General{v, 9});
      sep = ",";
    }
    out += "]}\n";
  }
  Append(out, "{\"summary\":1,\"ticks\":", rows_.size(),
         ",\"measure_start\":", General{measure_start_, 9}, "}\n");
  return out;
}

std::string TimeSeries::RenderChromeCounters() const {
  std::string out;
  out.reserve(rows_.size() * tracks_.size() * 80);
  std::string_view sep;
  for (const Row& row : rows_) {
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      Append(out, sep, "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":",
             Fixed{row.t * 1e6, 3}, ",\"name\":\"", tracks_[i].name,
             "\",\"args\":{\"v\":", General{row.v[i], 9}, "}}");
      sep = ",\n";
    }
  }
  return out;
}

}  // namespace psoodb::metrics
