/// \file timeline_report.cpp
/// Offline analyzer for the telemetry time-series JSONL sink (see
/// docs/OBSERVABILITY.md and src/metrics/timeseries.h). Standalone on
/// purpose — it links nothing from the simulator, so it can digest
/// TELEMETRY_*.jsonl files from any build.
///
/// Usage:  timeline_report [--top=N] [--storm-factor=F] [--series=NAME] FILE...
///
/// For each telemetry file it prints
///   * the run header (protocol, clients, servers, seed, tick, partitions),
///   * per-series statistics — peak / mean / p50 / p99 for gauges, and for
///     counters the per-tick delta statistics (total, peak rate, mean rate;
///     negative deltas from the warmup->measurement reset are clamped),
///   * the top-N most-stalled shard windows (from the shard<p>.stall_s
///     counter tracks; the stall fraction is the per-tick delta divided by
///     the tick span, flagged when above 90%), and
///   * callback-storm windows: ticks whose callbacks_sent delta exceeds
///     --storm-factor times the mean per-tick delta over the run.
///
/// Exits nonzero on malformed input: a missing meta line, a row whose value
/// vector does not match the declared track list, or a missing summary line
/// all indicate a truncated or corrupted file and are hard errors.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "jsonl_fields.h"

namespace {

using psoodb::jsonl::IntField;
using psoodb::jsonl::NumField;
using psoodb::jsonl::StrField;

struct Track {
  std::string name;
  bool is_counter = false;
};

/// Parses the meta line's "tracks":[{"name":...,"kind":...},...] array.
/// Returns false on any structural surprise (treated as malformed input).
bool ParseTracks(const std::string& line, std::vector<Track>* out) {
  const std::size_t arr = line.find("\"tracks\":[");
  if (arr == std::string::npos) return false;
  std::size_t pos = arr + std::strlen("\"tracks\":[");
  while (pos < line.size() && line[pos] != ']') {
    const std::size_t obj_start = line.find('{', pos);
    if (obj_start == std::string::npos) return false;
    const std::size_t obj_end = line.find('}', obj_start);
    if (obj_end == std::string::npos) return false;
    const std::string obj = line.substr(obj_start, obj_end - obj_start + 1);
    Track t;
    t.name = StrField(obj, "name");
    const std::string kind = StrField(obj, "kind");
    if (t.name.empty() || (kind != "gauge" && kind != "counter")) return false;
    t.is_counter = kind == "counter";
    out->push_back(std::move(t));
    pos = obj_end + 1;
    while (pos < line.size() && (line[pos] == ',' || line[pos] == ' ')) ++pos;
  }
  return pos < line.size() && !out->empty();
}

/// Parses a row's "v":[n,n,...] array. Returns false unless exactly
/// `expect` comma-separated numbers are present.
bool ParseRowValues(const std::string& line, std::size_t expect,
                    std::vector<double>* out) {
  const std::size_t arr = line.find("\"v\":[");
  if (arr == std::string::npos) return false;
  std::size_t pos = arr + std::strlen("\"v\":[");
  out->clear();
  out->reserve(expect);
  while (pos < line.size() && line[pos] != ']') {
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + pos, &end);
    const std::size_t consumed = static_cast<std::size_t>(
        end - (line.c_str() + pos));
    if (consumed == 0) return false;
    out->push_back(v);
    pos += consumed;
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return pos < line.size() && out->size() == expect;
}

struct Options {
  int top = 5;
  double storm_factor = 4.0;
  std::string series;  ///< substring filter for the per-series table
};

/// Nearest-rank percentile of a sorted vector (p in [0,1]).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

int Report(const char* path, const Options& opt) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "timeline_report: cannot open %s\n", path);
    return 1;
  }
  std::printf("=== %s ===\n", path);

  std::vector<Track> tracks;
  std::vector<double> times;                // row timestamps
  std::vector<std::vector<double>> values;  // [track][row]
  bool have_meta = false;
  bool have_summary = false;
  double tick = 0;
  double measure_start = 0;
  long long declared_ticks = -1;
  std::string line;
  long long lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.find("\"psoodb_telemetry\":1") != std::string::npos) {
      if (!ParseTracks(line, &tracks)) {
        std::fprintf(stderr,
                     "timeline_report: %s:%lld: malformed tracks array\n",
                     path, lineno);
        return 1;
      }
      tick = NumField(line, "tick");
      std::printf(
          "protocol=%s clients=%lld servers=%lld seed=%lld tick=%g "
          "partitions=%lld tracks=%zu\n",
          StrField(line, "protocol").c_str(), IntField(line, "clients"),
          IntField(line, "servers"), IntField(line, "seed"), tick,
          IntField(line, "partitions", 0), tracks.size());
      values.assign(tracks.size(), {});
      have_meta = true;
      continue;
    }
    if (line.find("\"summary\":1") != std::string::npos) {
      have_summary = true;
      declared_ticks = IntField(line, "ticks", -1);
      measure_start = NumField(line, "measure_start");
      continue;
    }
    if (!have_meta) {
      std::fprintf(stderr,
                   "timeline_report: %s:%lld: row before the meta line\n",
                   path, lineno);
      return 1;
    }
    std::vector<double> row;
    if (line.find("\"t\":") == std::string::npos ||
        !ParseRowValues(line, tracks.size(), &row)) {
      std::fprintf(stderr, "timeline_report: %s:%lld: malformed row\n", path,
                   lineno);
      return 1;
    }
    times.push_back(NumField(line, "t"));
    for (std::size_t i = 0; i < tracks.size(); ++i) values[i].push_back(row[i]);
  }
  if (!have_meta) {
    std::fprintf(stderr,
                 "timeline_report: %s has no psoodb_telemetry meta line\n",
                 path);
    return 1;
  }
  if (!have_summary) {
    std::fprintf(stderr,
                 "timeline_report: %s has no summary line (truncated?)\n",
                 path);
    return 1;
  }
  if (declared_ticks >= 0 &&
      declared_ticks != static_cast<long long>(times.size())) {
    std::fprintf(stderr,
                 "timeline_report: %s: summary declares %lld ticks but file "
                 "has %zu rows\n",
                 path, declared_ticks, times.size());
    return 1;
  }
  std::printf("rows=%zu span=[%.6g, %.6g] measure_start=%.6g\n", times.size(),
              times.empty() ? 0 : times.front(),
              times.empty() ? 0 : times.back(), measure_start);
  if (times.empty()) {
    std::printf("(no samples)\n\n");
    return 0;
  }

  // Per-tick deltas for a counter track, clamping the negative delta at the
  // warmup->measurement reset to zero.
  auto deltas_of = [&](std::size_t track) {
    std::vector<double> d;
    d.reserve(values[track].size());
    double prev = 0;
    for (const double v : values[track]) {
      d.push_back(std::max(0.0, v - prev));
      prev = v;
    }
    return d;
  };

  // --- Per-series statistics ---------------------------------------------
  std::printf("\nper-series statistics%s:\n",
              opt.series.empty() ? "" : " (filtered)");
  std::printf("  %-28s %10s %10s %10s %10s\n", "series", "peak", "mean", "p50",
              "p99");
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (!opt.series.empty() &&
        tracks[i].name.find(opt.series) == std::string::npos) {
      continue;
    }
    // Counters are reported through their per-tick deltas (rates); gauges
    // through their sampled values.
    const std::vector<double> series =
        tracks[i].is_counter ? deltas_of(i) : values[i];
    double sum = 0, peak = series.empty() ? 0 : series[0];
    for (const double v : series) {
      sum += v;
      peak = std::max(peak, v);
    }
    std::vector<double> sorted = series;
    std::sort(sorted.begin(), sorted.end());
    std::printf("  %-28s %10.4g %10.4g %10.4g %10.4g%s\n",
                tracks[i].name.c_str(), peak,
                sum / static_cast<double>(series.size()),
                Percentile(sorted, 0.50), Percentile(sorted, 0.99),
                tracks[i].is_counter ? "  (per-tick deltas)" : "");
  }

  // --- Top stalled shard windows -----------------------------------------
  // shard<p>.stall_s counters accumulate barrier-stall seconds; the per-tick
  // delta over the tick span is the fraction of the window the partition
  // spent parked at the barrier.
  struct Stall {
    double t;
    int partition;
    double fraction;
  };
  std::vector<Stall> stalls;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const std::string& name = tracks[i].name;
    if (name.compare(0, 5, "shard") != 0) continue;
    const std::size_t dot = name.find('.');
    if (dot == std::string::npos || name.substr(dot) != ".stall_s") continue;
    const int partition = std::atoi(name.c_str() + 5);
    const std::vector<double> d = deltas_of(i);
    for (std::size_t r = 0; r < d.size(); ++r) {
      const double span =
          r == 0 ? (tick > 0 ? tick : times[0]) : times[r] - times[r - 1];
      if (span <= 0 || d[r] <= 0) continue;
      stalls.push_back({times[r], partition, std::min(1.0, d[r] / span)});
    }
  }
  if (!stalls.empty()) {
    std::stable_sort(stalls.begin(), stalls.end(),
                     [](const Stall& a, const Stall& b) {
                       return a.fraction > b.fraction;
                     });
    std::printf("\ntop stalled shard windows (stall seconds / tick span):\n");
    const std::size_t n = std::min<std::size_t>(
        stalls.size(), static_cast<std::size_t>(opt.top));
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("  t=%-10.6g shard%-3d %5.1f%%%s\n", stalls[i].t,
                  stalls[i].partition, 100.0 * stalls[i].fraction,
                  stalls[i].fraction > 0.90 ? "  ** >90% stalled **" : "");
    }
  }

  // --- Callback-storm detection ------------------------------------------
  // A storm window is a tick whose callbacks_sent delta exceeds
  // storm_factor times the mean per-tick delta — a burst well above the
  // run's own baseline (the windowed burst-over-baseline rule).
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (tracks[i].name != "callbacks_sent") continue;
    const std::vector<double> d = deltas_of(i);
    double sum = 0;
    for (const double v : d) sum += v;
    const double mean = sum / static_cast<double>(d.size());
    if (mean <= 0) break;
    std::vector<std::size_t> storms;
    for (std::size_t r = 0; r < d.size(); ++r) {
      if (d[r] > opt.storm_factor * mean) storms.push_back(r);
    }
    std::printf("\ncallback storms (delta > %.3gx mean %.4g): %zu windows\n",
                opt.storm_factor, mean, storms.size());
    const std::size_t n =
        std::min<std::size_t>(storms.size(), static_cast<std::size_t>(opt.top));
    for (std::size_t s = 0; s < n; ++s) {
      std::printf("  t=%-10.6g callbacks=%g (%.2gx mean)\n", times[storms[s]],
                  d[storms[s]], d[storms[s]] / mean);
    }
    break;
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--top=", 6) == 0) {
      opt.top = std::atoi(arg + 6);
    } else if (std::strncmp(arg, "--storm-factor=", 15) == 0) {
      opt.storm_factor = std::atof(arg + 15);
    } else if (std::strncmp(arg, "--series=", 9) == 0) {
      opt.series = arg + 9;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "usage: timeline_report [--top=N] [--storm-factor=F] "
          "[--series=NAME] FILE...\n"
          "Analyzes psoodb telemetry time series (PSOODB_TELEMETRY=1 runs):\n"
          "per-series peaks and percentiles, top stalled shard windows,\n"
          "callback-storm detection. --series filters the statistics table\n"
          "to series whose name contains NAME.\n");
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "timeline_report: no input files (see --help for usage)\n");
    return 1;
  }
  int rc = 0;
  for (const char* f : files) rc |= Report(f, opt);
  return rc;
}
