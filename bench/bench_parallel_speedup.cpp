// Speedup curve for the intra-run parallel simulator: runs one scaled
// HOTCOLD point (the Figure 12 configuration) partitioned by server at
// worker-thread counts 1, 2 and 4 (sim_shards; clamped to the server
// count), and reports wall time, event rate and speedup relative to the
// single-threaded partitioned run. The partition structure is identical at
// every thread count, so the runs must also be byte-identical — the binary
// exits nonzero if events or commits diverge.
//
// Environment knobs:
//   PSOODB_BENCH_CLIENTS   clients              (default 2000)
//   PSOODB_BENCH_SERVERS   servers = partitions (default 4)
//   PSOODB_BENCH_WARMUP    warmup commits       (default 200)
//   PSOODB_BENCH_COMMITS   measured commits     (default 2000)
//   PSOODB_BENCH_DISKS     disks per server     (default 8: provisioned for
//                          500 clients/server rather than Table 1's 2)
//   PSOODB_BENCH_LOCALITY  1 = high page locality (default), 0 = low.
//                          Parallel DES speedup depends on event density
//                          inside the lookahead window; the low-locality
//                          point is disk-queue-bound and too sparse to gain.
//   PSOODB_BENCH_SEQ       1 = also run the one-partition simulator as a
//                          reference row (default 0: at 2000 clients the
//                          single shared network segment saturates and the
//                          run caps out without committing)
//   PSOODB_BENCH_LATENCY_US  cross-partition link latency in microseconds
//                          (default 1000). This is the conservative
//                          lookahead, so it sets the event density per
//                          window — the main determinant of parallel
//                          speedup. At the 100us default model latency the
//                          windows carry only a handful of events each and
//                          barrier overhead eats the gain; see the
//                          lookahead-sensitivity table in EXPERIMENTS.md.
//
// The EXPERIMENTS.md speedup table is produced by this binary at the
// defaults (one measurement run per thread count; the simulations are
// deterministic, so only host scheduler noise varies between repetitions).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "config/params.h"
#include "core/system.h"
#include "figure_harness.h"

int main() {
  using namespace psoodb;
  const int clients = bench::EnvInt("PSOODB_BENCH_CLIENTS", 2000);
  const int servers = bench::EnvInt("PSOODB_BENCH_SERVERS", 4);
  const int disks = bench::EnvInt("PSOODB_BENCH_DISKS", 8);
  const int latency_us = bench::EnvInt("PSOODB_BENCH_LATENCY_US", 1000);
  const auto locality = bench::EnvInt("PSOODB_BENCH_LOCALITY", 1) != 0
                            ? config::Locality::kHigh
                            : config::Locality::kLow;
  core::RunConfig rc;
  rc.warmup_commits = bench::EnvInt("PSOODB_BENCH_WARMUP", 200);
  rc.measure_commits = bench::EnvInt("PSOODB_BENCH_COMMITS", 2000);

  std::printf("parallel speedup: scaled HOTCOLD wp=0.20 %s locality, "
              "%d clients, %d servers x %d disks, %dus link latency, "
              "%d measured commits\n",
              locality == config::Locality::kHigh ? "high" : "low", clients,
              servers, disks, latency_us, rc.measure_commits);
  std::printf("%8s %10s %14s %14s %10s %9s\n", "shards", "wall_s", "events",
              "events/sec", "ev/sim_s", "speedup");

  double base_wall = 0;
  std::uint64_t base_events = 0, base_commits = 0;
  bool diverged = false;
  // shards = 0 is the one-partition simulator (single event loop, shared
  // network): a different model, so its events are not comparable and it is
  // excluded from the divergence check; it is shown as the reference the
  // partitioned runs deviate from. Speedup is relative to shards = 1 (the
  // same partitioned model on one thread).
  const bool with_seq = bench::EnvInt("PSOODB_BENCH_SEQ", 0) != 0;
  for (int shards : {0, 1, 2, 4}) {
    if (shards == 0 && !with_seq) continue;
    if (shards > servers) continue;
    config::SystemParams sys;
    sys.num_clients = clients;
    sys.num_servers = servers;
    sys.sim_shards = shards;
    // Scale the database with the client count exactly as the paper's
    // scale-up methodology does (Table 1: 1250 pages per 25 clients). A
    // fixed db at high client counts piles every client's hot region onto
    // the same pages and the run degenerates into deadlock thrash.
    sys.db_pages = 1250 * std::max(1, clients / 25);
    sys.server_disks = disks;
    sys.cross_partition_latency = latency_us * 1e-6;
    // Table 1 transaction size. Inflating it (e.g. x3) looks like it would
    // raise event density, but at 2000 clients it tips the point into
    // deadlock-abort thrash (tens of aborts per commit) where the cross-
    // partition coordinator, not transaction work, dominates the wall clock.
    auto w = config::MakeHotCold(sys, locality, 0.20);

    const auto t0 = std::chrono::steady_clock::now();  // det-ok: wall-clock is the measurement output of this benchmark; it never feeds simulation state
    const core::RunResult r =
        core::RunSimulation(config::Protocol::kPSAA, sys, w, rc);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)  // det-ok: wall-clock is the measurement output of this benchmark; it never feeds simulation state
            .count();

    if (shards == 1) {
      base_wall = wall;
      base_events = r.events;
      base_commits = r.measured_commits;
      // Critical-path analysis from the single-threaded partitioned run,
      // whose per-partition busy times are unpolluted by oversubscription:
      // with one core per partition, the wall time of a window is the
      // longest partition's work plus the serial phase, so
      //   T(P) ~= max_p busy_p + serial + residual
      // where residual is everything the run did outside partition
      // execution and the serial phase (thread start/join, outbox writes).
      // This is the standard PDES bound and the only speedup measurement
      // possible on a host with fewer cores than partitions.
      double busy_total = 0, busy_max = 0;
      for (double b : r.shard_busy_seconds) {
        busy_total += b;
        busy_max = busy_max > b ? busy_max : b;
      }
      const double serial = r.shard_serial_seconds;
      const double residual =
          wall > busy_total + serial ? wall - busy_total - serial : 0;
      const double projected = busy_max + serial + residual;
      std::printf("         critical path: busy total=%.2fs max=%.2fs "
                  "serial=%.2fs -> projected %.2fx on %zu cores\n",
                  busy_total, busy_max, serial,
                  projected > 0 ? wall / projected : 0,
                  r.shard_busy_seconds.size());
      // Serial-phase sub-decomposition: where the non-parallel wall time
      // actually goes. The hook covers the deadlock scan, telemetry
      // sampling and trace merging (each timed separately inside it); the
      // remainder of the serial phase is the window computation and barrier
      // bookkeeping. The inbox merge runs on the workers (inside busy) but
      // is listed here because it is synchronization overhead, not
      // transaction work. Window/scan counters show how often the adaptive
      // machinery engaged.
      const double windowing = serial - r.shard_serial_hook_seconds;
      const double hook_other =
          r.shard_serial_hook_seconds - r.shard_scan_seconds -
          r.shard_telemetry_seconds - r.shard_trace_seconds;
      std::printf(
          "         serial breakdown: deadlock scan=%.3fs telemetry=%.3fs "
          "trace=%.3fs hook other=%.3fs windowing+barrier=%.3fs "
          "(worker-side inbox merge=%.3fs)\n",
          r.shard_scan_seconds, r.shard_telemetry_seconds,
          r.shard_trace_seconds, hook_other > 0 ? hook_other : 0,
          windowing > 0 ? windowing : 0, r.shard_merge_seconds);
      std::printf(
          "         windows=%llu (stretched=%llu) scans=%llu (full=%llu, "
          "skipped no-boundary=%llu) deltas=%llu\n",
          static_cast<unsigned long long>(r.shard_windows),
          static_cast<unsigned long long>(r.shard_windows_stretched),
          static_cast<unsigned long long>(r.shard_scans),
          static_cast<unsigned long long>(r.shard_full_scans),
          static_cast<unsigned long long>(r.shard_scans_skipped),
          static_cast<unsigned long long>(r.shard_deltas_applied));
    } else if (shards > 1 &&
               (r.events != base_events || r.measured_commits != base_commits)) {
      diverged = true;
    }
    char sp[16];
    if (shards == 0) {
      std::snprintf(sp, sizeof sp, "(seq)");
    } else {
      std::snprintf(sp, sizeof sp, "%.2fx", base_wall / wall);
    }
    std::printf(
        "%8d %10.2f %14llu %14.0f %10.0f %8s%s\n", shards, wall,
        static_cast<unsigned long long>(r.events),
        wall > 0 ? static_cast<double>(r.events) / wall : 0,
        r.sim_seconds > 0 ? static_cast<double>(r.events) / r.sim_seconds : 0,
        sp, r.stalled ? "  [stalled!]" : "");
    if (bench::EnvInt("PSOODB_BENCH_VERBOSE", 0) != 0) {
      std::printf("         tput=%.1f/s resp=%.3fs deadlocks=%llu "
                  "util cpu=%.2f disk=%.2f net=%.2f\n",
                  r.throughput, r.response_time.mean,
                  static_cast<unsigned long long>(r.deadlocks),
                  r.server_cpu_util, r.disk_util, r.network_util);
    }
    std::fflush(stdout);
  }
  if (diverged) {
    std::fprintf(stderr,
                 "FAIL: results diverged across shard counts; partitioned "
                 "runs must be byte-identical at any thread count\n");
    return 1;
  }
  return 0;
}
