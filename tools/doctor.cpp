// psoodb doctor: quick self-check used during development. Runs every
// protocol on a small high-contention configuration with all correctness
// checkers enabled — including the cross-component invariant checker
// (src/check/invariants.h) and the trace subsystem's sums-to-response
// decomposition invariant — and prints PASS/FAIL per protocol plus a
// latency-breakdown table (where each protocol's response time goes), and
// a telemetry section: per protocol, the peak server lock-queue depth and
// the top-3 most-stalled shard windows from a small partitioned run
// (windows more than 90% barrier-stalled are flagged).
// Useful as a smoke test after modifying protocol code (faster than the
// full ctest suite's integration portion when iterating).
//
//   $ ./build/src/psoodb_doctor        # despite the name: the doctor tool

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "config/params.h"
#include "core/system.h"
#include "metrics/timeseries.h"
#include "trace/trace.h"

int main() {
  using namespace psoodb;
  int failures = 0;
  struct BreakdownRow {
    std::string protocol;
    std::array<double, trace::kNumPhases> seconds{};
    double response_total = 0;
  };
  std::vector<BreakdownRow> breakdown;
  for (auto protocol : config::AllProtocolsExtended()) {
    bool ok = true;
    for (int which = 0; which < 3 && ok; ++which) {
      config::SystemParams sys;
      sys.num_clients = 6;
      sys.seed = 7 + which;
      sys.invariant_checks = true;
      sys.invariant_event_period = 500;
      sys.trace = true;  // exercises the decomposition invariant too
      config::WorkloadParams w;
      switch (which) {
        case 0: w = config::MakeHicon(sys, config::Locality::kLow, 0.2); break;
        case 1: w = config::MakeHotCold(sys, config::Locality::kHigh, 0.3); break;
        default: w = config::MakeInterleavedPrivate(sys, 0.25); break;
      }
      core::RunConfig rc;
      rc.warmup_commits = 50;
      rc.measure_commits = 300;
      rc.record_history = true;
      core::System system(protocol, sys, w);
      auto r = system.Run(rc);
      const check::InvariantChecker* inv = system.invariants();
      const bool invariants_ok = inv != nullptr && inv->ok();
      ok = !r.stalled && r.throughput > 0 &&
           r.counters.validity_violations == 0 && r.serializable &&
           r.no_lost_updates && invariants_ok &&
           r.breakdown_violations == 0;
      if (!ok) {
        std::printf("  [%s workload %d] stalled=%d thr=%.2f viol=%llu "
                    "serializable=%d lost=%d invariants=%s breakdown_viol=%llu\n",
                    config::ProtocolName(protocol), which, (int)r.stalled,
                    r.throughput,
                    (unsigned long long)r.counters.validity_violations,
                    (int)r.serializable, (int)!r.no_lost_updates,
                    invariants_ok ? "ok" : "VIOLATED",
                    (unsigned long long)r.breakdown_violations);
        if (!r.history_violation.empty()) {
          std::printf("    history: %s\n", r.history_violation.c_str());
        }
        if (inv != nullptr && !inv->ok()) inv->Report(stdout);
      }
      if (which == 0) {
        BreakdownRow row;
        row.protocol = config::ProtocolName(protocol);
        row.seconds = r.phase_seconds;
        for (int p = 0; p < trace::kNumPhases; ++p) {
          if (p != static_cast<int>(trace::Phase::kThink)) {
            row.response_total += r.phase_seconds[static_cast<std::size_t>(p)];
          }
        }
        breakdown.push_back(std::move(row));
      }
    }
    std::printf("%-6s %s\n", config::ProtocolName(protocol),
                ok ? "PASS" : "FAIL");
    failures += ok ? 0 : 1;
  }

  // Where the response time goes, per protocol (HICON workload), as a
  // percentage of the summed committed-transaction response time. A phase
  // eating more than 90% of the total is flagged — that is where the
  // protocol bottlenecks.
  std::printf("\nlatency breakdown (HICON, %% of response time):\n%-8s",
              "proto");
  for (int p = 0; p < trace::kNumPhases; ++p) {
    if (p == static_cast<int>(trace::Phase::kThink)) continue;
    std::printf("%14s", trace::PhaseName(p));
  }
  std::printf("\n");
  for (const auto& row : breakdown) {
    std::printf("%-8s", row.protocol.c_str());
    const char* flag = "";
    for (int p = 0; p < trace::kNumPhases; ++p) {
      if (p == static_cast<int>(trace::Phase::kThink)) continue;
      const double share =
          row.response_total > 0
              ? row.seconds[static_cast<std::size_t>(p)] / row.response_total
              : 0;
      std::printf("%13.1f%%", 100 * share);
      if (share > 0.90) flag = "  <-- dominated by one phase";
    }
    std::printf("%s\n", flag);
  }

  // --- Telemetry: queue depths and shard stalls per protocol --------------
  // A small partitioned run (2 servers, 2 worker threads) with the
  // time-series registry on. For each protocol: the peak per-server lock
  // queue depth over the run, and the three most-stalled shard windows —
  // ticks where a partition sat parked at the window barrier for most of
  // the window span. Windows above 90% stall are flagged: that partition
  // was effectively idle, so the shard tiling (or the workload skew) is
  // leaving parallelism on the table.
  std::printf("\ntelemetry (2 servers, sim_shards=2, hot-cold):\n");
  std::printf("%-6s %18s   %s\n", "proto", "peak lock queue",
              "top stalled shard windows (t, shard, stall%)");
  for (auto protocol : config::AllProtocolsExtended()) {
    config::SystemParams sys;
    sys.num_clients = 6;
    sys.num_servers = 2;
    sys.sim_shards = 2;
    sys.seed = 11;
    sys.telemetry = true;
    auto w = config::MakeHotCold(sys, config::Locality::kLow, 0.2);
    core::RunConfig rc;
    rc.warmup_commits = 50;
    rc.measure_commits = 300;
    core::System system(protocol, sys, w);
    auto r = system.Run(rc);
    metrics::TimeSeries* ts = system.telemetry();
    if (ts == nullptr || ts->num_rows() == 0 || r.stalled) {
      std::printf("%-6s (no telemetry rows)\n", config::ProtocolName(protocol));
      ++failures;
      continue;
    }
    double peak_depth = 0;
    for (int srv = 0; srv < sys.num_servers; ++srv) {
      const int track = ts->FindTrack("server" + std::to_string(srv) +
                                      ".lock_queue_depth");
      if (track < 0) continue;
      for (std::size_t row = 0; row < ts->num_rows(); ++row) {
        peak_depth = std::max(peak_depth, ts->value(row, track));
      }
    }
    struct StallWindow {
      double t;
      int shard;
      double fraction;
    };
    std::vector<StallWindow> stalls;
    for (int p = 0; p < sys.num_servers; ++p) {
      const int track =
          ts->FindTrack("shard" + std::to_string(p) + ".stall_s");
      if (track < 0) continue;
      double prev = 0, prev_t = 0;
      for (std::size_t row = 0; row < ts->num_rows(); ++row) {
        const double span = ts->row_time(row) - prev_t;
        // Clamp the negative delta at the warmup->measurement reset.
        const double stall = std::max(0.0, ts->value(row, track) - prev);
        prev = ts->value(row, track);
        prev_t = ts->row_time(row);
        if (span > 0 && stall > 0) {
          stalls.push_back(
              {ts->row_time(row), p, std::min(1.0, stall / span)});
        }
      }
    }
    std::stable_sort(stalls.begin(), stalls.end(),
                     [](const StallWindow& a, const StallWindow& b) {
                       return a.fraction > b.fraction;
                     });
    std::printf("%-6s %18.0f  ", config::ProtocolName(protocol), peak_depth);
    if (stalls.empty()) {
      std::printf(" (no stalled windows)");
    }
    for (std::size_t i = 0; i < std::min<std::size_t>(stalls.size(), 3);
         ++i) {
      std::printf("  (%.2f, s%d, %.0f%%%s)", stalls[i].t, stalls[i].shard,
                  100 * stalls[i].fraction,
                  stalls[i].fraction > 0.90 ? " **" : "");
    }
    std::printf("\n");
  }
  return failures;
}
