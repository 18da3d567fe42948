/// \file results_json.h
/// Machine-readable bench results: serializes a full figure sweep (config
/// plus the per-point RunResult grid) to JSON. Every figure binary writes
/// `BENCH_<figure>.json` next to its console table; downstream tooling and
/// future perf-trajectory PRs consume these files instead of scraping the
/// tables.
///
/// Schema (one document per figure; "config.schema_version" is bumped when
/// fields change — 2 added the per-run "latency" object):
///   {
///     "figure": "Figure 3", "title": ..., "expectation": ...,
///     "normalize_to_psaa": false,
///     "config": { "schema_version": 2, "num_clients": ..., "db_pages": ...,
///                 "seed": ..., "warmup_commits": ..., "measure_commits": ...,
///                 "bench_threads": ... },
///     "protocols": ["PS", "OS", ...],
///     "points": [ { "write_prob": 0.0,
///                   "runs": [ { "protocol": "PS", "throughput": ...,
///                               "response_time": {"mean","half_width"},
///                               "sim_seconds", "measured_commits",
///                               "deadlocks", utilizations,
///                               "msgs_per_commit", "stalled", "events",
///                               "latency": { "p50","p90","p99","max"
///                                            (response-time percentiles, s),
///                                            "mean_lock_wait" (per blocked
///                                            acquire), "mean_callback_wait"
///                                            (per callback round) },
///                               "counters": { every metrics::Counters
///                                             field } }, ... ] }, ... ]
///   }
/// Doubles are printed with %.17g, so equal bit patterns produce equal
/// text — the determinism test compares two sweeps by their JSON strings.

#ifndef PSOODB_BENCH_RESULTS_JSON_H_
#define PSOODB_BENCH_RESULTS_JSON_H_

#include <string>
#include <vector>

#include "config/params.h"
#include "core/system.h"

namespace psoodb::bench {

struct SweepOptions;  // figure_harness.h

/// Renders the whole sweep as a JSON document (no trailing newline).
std::string FigureResultsJson(
    const SweepOptions& options, const config::SystemParams& sys,
    const core::RunConfig& rc, int bench_threads,
    const std::vector<double>& write_probs,
    const std::vector<std::vector<core::RunResult>>& grid);

/// "Figure 3" -> "BENCH_Figure_3.json" (non-alphanumerics become '_').
std::string FigureJsonFileName(const std::string& figure);

/// One kernel-microbench scenario measurement (bench/bench_kernel.cpp).
/// `events` is the number of kernel events the scenario fired in one
/// repetition; `wall_seconds`/`events_per_sec` come from the fastest
/// repetition (microbench convention: best-of-N rejects scheduler noise).
struct KernelScenarioResult {
  std::string name;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  /// Every repetition's rate, in run order. Repetition r of every scenario
  /// ran in the same pass, so two scenarios' entries pair up by index.
  std::vector<double> rep_events_per_sec;
  /// Fraction of partitioned wall time spent in the serial phase:
  /// serial / (serial + sum of per-partition busy). Only the partitioned
  /// scenario (parallel_point) reports it; -1 means not applicable and the
  /// field is omitted from the JSON.
  double serial_share = -1;
};

/// Renders the kernel-bench document (no trailing newline). Schema:
///   { "bench": "kernel", "schema_version": 3, "quick": false,
///     "repetitions": N,
///     "scenarios": [ { "name", "events", "wall_seconds",
///                      "events_per_sec", "rep_events_per_sec",
///                      "serial_share"? }, ... ] }
/// (2 added the optional per-scenario "serial_share"; 3 added
/// "rep_events_per_sec", one rate per repetition.) The CI perf-smoke job
/// compares "events_per_sec" per scenario against the committed baseline
/// in bench/baselines/BENCH_kernel.json, gates the median of the
/// per-repetition telemetry_point / fig08_point ratios, and gates
/// parallel_point's serial_share structurally (--max-serial-share).
std::string KernelResultsJson(bool quick, int repetitions,
                              const std::vector<KernelScenarioResult>& rows);

/// Writes `json` to `path` with exactly one trailing newline (appended only
/// if missing); returns false (with a stderr warning) on I/O failure.
bool WriteJsonFile(const std::string& path, const std::string& json);

}  // namespace psoodb::bench

#endif  // PSOODB_BENCH_RESULTS_JSON_H_
