/// \file figure_harness.h
/// Shared driver for the per-figure experiment binaries. Each bench binary
/// reproduces one figure of the paper: it sweeps the object write
/// probability (the x-axis used throughout Section 5), runs all five
/// protocols at each point, and prints the throughput series plus the
/// auxiliary metrics the paper's analysis refers to.
///
/// The (write_prob, protocol) points of a sweep are independent simulation
/// runs — each owns its Simulation, Rng streams, and Counters — so the
/// harness fans them out over a fixed-size thread pool and collects rows in
/// deterministic sweep order. Results are identical at any thread count
/// (the determinism test in tests/bench_harness_test.cpp enforces this).
/// Alongside the console table, every sweep writes the full result grid to
/// `BENCH_<figure>.json` (see results_json.h for the schema).
///
/// Environment knobs:
///   PSOODB_BENCH_COMMITS   measured commits per point (default 1200)
///   PSOODB_BENCH_WARMUP    warmup commits per point  (default 300)
///   PSOODB_BENCH_POINTS    number of x-axis points   (default 7: 0..0.30)
///   PSOODB_BENCH_FULL=1    paper-scale runs (4000 commits, 9 points)
///   PSOODB_BENCH_THREADS   worker threads for the sweep
///                          (default: hardware concurrency; 1 = sequential)
///   PSOODB_BENCH_CLIENTS   override SystemParams::num_clients in binaries
///   PSOODB_BENCH_SERVERS   override SystemParams::num_servers  that call
///                          ApplyScaleEnv (the scaled Figures 12-14)
///   PSOODB_SIM_SHARDS      read by core::System itself: > 0 partitions each
///                          run with several servers by server and executes
///                          it on that many worker threads; one server stays
///                          one partition (see docs/SIMULATOR.md)
///   PSOODB_BENCH_JSON_DIR  directory for BENCH_*.json (default ".";
///                          empty string disables the JSON output)
///   PSOODB_TRACE=1         enable structured event tracing in every run;
///                          per-run TRACE_<figure>_<proto>_wpNN.jsonl and
///                          .trace.json sinks are written next to the JSON
///                          (see docs/OBSERVABILITY.md). Tracing never
///                          changes simulation results.
///   PSOODB_TELEMETRY       time-series telemetry: any non-empty value but
///                          "0" enables, "0" force-disables (the scaled
///                          Figures 12-14 default it on); per-run
///                          TELEMETRY_<figure>_<proto>_wpNN.jsonl sinks are
///                          written next to the JSON, for timeline_report.
///                          Telemetry never changes simulation results.
///   PSOODB_TELEMETRY_TICK  sampling tick in simulated seconds (default
///                          0.25; see src/metrics/timeseries.h)

#ifndef PSOODB_BENCH_FIGURE_HARNESS_H_
#define PSOODB_BENCH_FIGURE_HARNESS_H_

#include <functional>
#include <string>
#include <vector>

#include "config/params.h"
#include "core/system.h"
#include "util/env.h"

namespace psoodb::bench {

struct SweepOptions {
  std::string figure;       ///< e.g. "Figure 3"
  std::string title;        ///< e.g. "HOTCOLD workload, low page locality"
  std::string expectation;  ///< the paper's qualitative result, printed below
  std::vector<double> write_probs;        ///< x-axis (filled by env default)
  std::vector<config::Protocol> protocols = config::AllProtocols();
  /// Normalize throughput to PS-AA (= 1.0), as Figures 12-14 do. Rows where
  /// PS-AA stalled or committed nothing fall back to raw txns/sec and are
  /// annotated, rather than silently printing raw numbers as if normalized.
  bool normalize_to_psaa = false;
};

/// Builds the workload for one x-axis point. Invoked on the main thread
/// (once per point, before jobs are submitted), so it need not be
/// thread-safe.
using WorkloadFactory =
    std::function<config::WorkloadParams(const config::SystemParams&, double)>;

/// Strictly validated integer environment lookup (util/env.h): the whole
/// value must be a base-10 integer, otherwise the default is used and a
/// warning printed (unlike atoi, "4k" does not silently become 4 nor
/// garbage become 0).
using util::EnvInt;

/// Experiment-control values resolved from the environment.
core::RunConfig BenchRunConfig();
std::vector<double> BenchWriteProbs();
/// Worker threads for the sweep (PSOODB_BENCH_THREADS, default hardware
/// concurrency, clamped to >= 1).
int BenchThreads();
/// Applies the PSOODB_BENCH_CLIENTS / PSOODB_BENCH_SERVERS overrides (if
/// set) to `sys`. The scaled-figure binaries (12-14) call this so one build
/// sweeps 100/500/2000 clients x 2-8 servers from the environment.
void ApplyScaleEnv(config::SystemParams& sys);

/// Runs the sweep and prints the figure table. Returns the full result grid
/// indexed [write_prob][protocol].
std::vector<std::vector<core::RunResult>> RunFigure(
    const SweepOptions& options, const config::SystemParams& sys,
    const WorkloadFactory& factory);

}  // namespace psoodb::bench

#endif  // PSOODB_BENCH_FIGURE_HARNESS_H_
