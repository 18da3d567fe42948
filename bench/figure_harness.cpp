#include "figure_harness.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>

#include "results_json.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace psoodb::bench {

namespace {

bool EnvFull() { return EnvInt("PSOODB_BENCH_FULL", 0) != 0; }

/// Formats one table cell: the value plus the stall/violation markers,
/// right-justified in a fixed 10-character column so markers never shift
/// later columns.
void PrintCell(const char* fmt, double value, const core::RunResult& r) {
  char num[32];
  std::snprintf(num, sizeof(num), fmt, value);
  std::string cell = num;
  if (r.stalled) cell += '!';
  if (r.counters.validity_violations != 0) cell += '*';
  std::printf("%10s", cell.c_str());
}

}  // namespace

core::RunConfig BenchRunConfig() {
  core::RunConfig rc;
  rc.warmup_commits = EnvInt("PSOODB_BENCH_WARMUP", EnvFull() ? 800 : 300);
  rc.measure_commits =
      EnvInt("PSOODB_BENCH_COMMITS", EnvFull() ? 4000 : 1200);
  return rc;
}

std::vector<double> BenchWriteProbs() {
  const int points = EnvInt("PSOODB_BENCH_POINTS", EnvFull() ? 9 : 7);
  std::vector<double> probs;
  // 0, 0.05, ... (0.30 at 7 points; 0.40 at 9).
  for (int i = 0; i < points; ++i) probs.push_back(0.05 * i);
  return probs;
}

int BenchThreads() {
  const int n = EnvInt("PSOODB_BENCH_THREADS",
                       static_cast<int>(util::ThreadPool::DefaultThreadCount()));
  return n > 0 ? n : 1;
}

void ApplyScaleEnv(config::SystemParams& sys) {
  sys.num_clients = EnvInt("PSOODB_BENCH_CLIENTS", sys.num_clients);
  sys.num_servers = EnvInt("PSOODB_BENCH_SERVERS", sys.num_servers);
  PSOODB_CHECK(sys.num_clients > 0 && sys.num_servers > 0,
               "PSOODB_BENCH_CLIENTS/SERVERS must be positive");
}

std::vector<std::vector<core::RunResult>> RunFigure(
    const SweepOptions& options, const config::SystemParams& sys,
    const WorkloadFactory& factory) {
  SweepOptions opt = options;
  if (opt.write_probs.empty()) opt.write_probs = BenchWriteProbs();
  const core::RunConfig rc = BenchRunConfig();
  const int threads = BenchThreads();

  std::printf("==================================================================\n");
  std::printf("%s: %s\n", opt.figure.c_str(), opt.title.c_str());
  std::printf("  (x-axis: per-object write probability; y: committed txns/sec;\n");
  std::printf("   %d clients, %d server%s, %d-page DB, %d measured commits "
              "per point, %d thread%s)\n",
              sys.num_clients, sys.num_servers,
              sys.num_servers == 1 ? "" : "s", sys.db_pages,
              rc.measure_commits, threads, threads == 1 ? "" : "s");
  std::printf("==================================================================\n");

  // Wall-clock here only reports sweep duration; no simulation state.
  const auto t0 = std::chrono::steady_clock::now();  // det-ok: progress reporting only, never enters the sim

  // Fan out: every (write_prob, protocol) point is an independent run — each
  // System owns its Simulation, Rng streams and Counters, and nothing in the
  // run path touches shared mutable state — so jobs are submitted to the pool
  // and rows are collected (and printed) in deterministic sweep order as they
  // complete. Workloads are built on this thread: factories are not required
  // to be thread-safe. `sys` and the workload are captured by value —
  // psoodb-analyze's shard-escape check fails the build if a by-reference
  // capture of partition state ever sneaks into a Submit here.
  util::ThreadPool pool(static_cast<std::size_t>(threads));
  std::vector<std::vector<std::future<core::RunResult>>> futures;
  futures.reserve(opt.write_probs.size());
  for (double wp : opt.write_probs) {
    auto& row = futures.emplace_back();
    row.reserve(opt.protocols.size());
    const config::WorkloadParams workload = factory(sys, wp);
    for (auto p : opt.protocols) {
      row.push_back(pool.Submit([p, sys, workload, rc] {
        return core::RunSimulation(p, sys, workload, rc);
      }));
    }
  }

  std::printf("%-8s", "wrprob");
  for (auto p : opt.protocols) std::printf("%10s", config::ProtocolName(p));
  std::printf("\n");

  std::vector<std::vector<core::RunResult>> grid;
  grid.reserve(opt.write_probs.size());
  for (std::size_t wi = 0; wi < opt.write_probs.size(); ++wi) {
    std::vector<core::RunResult> row;
    row.reserve(futures[wi].size());
    for (auto& f : futures[wi]) row.push_back(f.get());

    std::printf("%-8.2f", opt.write_probs[wi]);
    // Normalization baseline: PS-AA's throughput, but only when that run is
    // usable. A stalled or zero-throughput PS-AA must not silently turn the
    // "normalized" column into raw numbers.
    double psaa = 0;
    bool have_psaa = false;
    if (opt.normalize_to_psaa) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (opt.protocols[i] == config::Protocol::kPSAA && !row[i].stalled &&
            row[i].throughput > 0) {
          psaa = row[i].throughput;
          have_psaa = true;
        }
      }
    }
    const bool normalized = opt.normalize_to_psaa && have_psaa;
    for (auto& r : row) {
      if (normalized) {
        PrintCell("%.3f", r.throughput / psaa, r);
      } else {
        PrintCell("%.2f", r.throughput, r);
      }
    }
    if (opt.normalize_to_psaa && !have_psaa) {
      std::printf("  [PS-AA n/a; raw txns/sec shown]");
    }
    std::printf("\n");
    std::fflush(stdout);
    grid.push_back(std::move(row));
  }

  // Auxiliary metrics at the highest write probability, which the paper's
  // analysis leans on (messages/txn, server CPU, deadlocks).
  if (!grid.empty() && grid.back().size() == opt.protocols.size()) {
    std::printf("\nat wrprob=%.2f:\n", opt.write_probs.back());
    std::printf("%-12s", "msgs/txn");
    for (auto& r : grid.back()) std::printf("%10.1f", r.msgs_per_commit);
    std::printf("\n%-12s", "server cpu");
    for (auto& r : grid.back()) std::printf("%10.2f", r.server_cpu_util);
    std::printf("\n%-12s", "disk util");
    for (auto& r : grid.back()) std::printf("%10.2f", r.disk_util);
    std::printf("\n%-12s", "deadlocks");
    for (auto& r : grid.back()) {
      std::printf("%10llu", static_cast<unsigned long long>(r.deadlocks));
    }
    std::printf("\n%-12s", "resp ms");
    for (auto& r : grid.back()) {
      std::printf("%10.0f", r.response_time.mean * 1000);
    }
    std::printf("\n%-12s", "p50 ms");
    for (auto& r : grid.back()) {
      std::printf("%10.0f", r.response_hist.Percentile(0.50) * 1000);
    }
    std::printf("\n%-12s", "p99 ms");
    for (auto& r : grid.back()) {
      std::printf("%10.0f", r.response_hist.Percentile(0.99) * 1000);
    }
    std::printf("\n");
  }

  const char* json_dir = std::getenv("PSOODB_BENCH_JSON_DIR");
  if (json_dir == nullptr) json_dir = ".";
  if (*json_dir != '\0') {
    std::string path = std::string(json_dir) + "/" +
                       FigureJsonFileName(opt.figure);
    if (WriteJsonFile(path, FigureResultsJson(opt, sys, rc, threads,
                                              opt.write_probs, grid))) {
      std::printf("\nresults: %s\n", path.c_str());
    }
    // With tracing on (PSOODB_TRACE=1 / SystemParams::trace), every run's
    // serialized sinks land next to the JSON: TRACE_<figure>_<proto>_wpNN
    // as .jsonl (for trace_report) and .trace.json (Chrome/Perfetto).
    // "BENCH_Figure_8.json" -> "Figure_8" for the trace-file stems.
    std::string fig = FigureJsonFileName(opt.figure);
    fig = fig.substr(6, fig.size() - 6 - 5);
    std::size_t trace_files = 0;
    for (std::size_t wi = 0; wi < grid.size(); ++wi) {
      for (const core::RunResult& r : grid[wi]) {
        if (r.trace_jsonl.empty()) continue;
        char stem[64];
        std::snprintf(stem, sizeof(stem), "%s_wp%02d",
                      config::ProtocolName(r.protocol),
                      static_cast<int>(opt.write_probs[wi] * 100 + 0.5));
        const std::string base =
            std::string(json_dir) + "/TRACE_" + fig + "_" + stem;
        trace_files += WriteJsonFile(base + ".jsonl", r.trace_jsonl);
        trace_files += WriteJsonFile(base + ".trace.json", r.trace_chrome);
      }
    }
    if (trace_files > 0) {
      std::printf("traces: %zu files in %s\n", trace_files, json_dir);
    }
    // With telemetry on (PSOODB_TELEMETRY=1 / SystemParams::telemetry),
    // every run's time-series sink lands next to the JSON the same way:
    // TELEMETRY_<figure>_<proto>_wpNN.jsonl (for timeline_report).
    std::size_t telemetry_files = 0;
    for (std::size_t wi = 0; wi < grid.size(); ++wi) {
      for (const core::RunResult& r : grid[wi]) {
        if (r.telemetry_jsonl.empty()) continue;
        char stem[64];
        std::snprintf(stem, sizeof(stem), "%s_wp%02d",
                      config::ProtocolName(r.protocol),
                      static_cast<int>(opt.write_probs[wi] * 100 + 0.5));
        const std::string base =
            std::string(json_dir) + "/TELEMETRY_" + fig + "_" + stem;
        telemetry_files += WriteJsonFile(base + ".jsonl", r.telemetry_jsonl);
      }
    }
    if (telemetry_files > 0) {
      std::printf("telemetry: %zu files in %s\n", telemetry_files, json_dir);
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // det-ok: progress reporting only, never enters the sim
                                    t0)
          .count();
  std::printf("\nPaper result: %s\n", opt.expectation.c_str());
  std::printf("[%.1fs]\n\n", wall);
  return grid;
}

}  // namespace psoodb::bench
