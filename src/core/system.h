/// \file system.h
/// Top-level assembly: builds a complete simulated page-server / object-
/// server OODBMS (server + N client workstations + network) for one of the
/// five protocols and runs a warmup + measurement experiment. This is the
/// main entry point of the library.
///
/// Every run is laid out as P event-loop partitions under one
/// sim::ShardGroup. P = 1 (sim_shards = 0, or one server) puts every server
/// and client on one shared network segment, the paper's model; P =
/// num_servers (sim_shards > 0 with several servers) gives each server and
/// its home clients their own partition.

#ifndef PSOODB_CORE_SYSTEM_H_
#define PSOODB_CORE_SYSTEM_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cc/deadlock_coordinator.h"
#include "config/params.h"
#include "core/client.h"
#include "core/history.h"
#include "core/messages.h"
#include "core/server.h"
#include "metrics/counters.h"
#include "metrics/histogram.h"
#include "metrics/stats.h"
#include "metrics/timeseries.h"
#include "resources/network.h"
#include "storage/database.h"
#include "trace/trace.h"
#include "util/annotations.h"

namespace psoodb::check {
class InvariantChecker;
}  // namespace psoodb::check

namespace psoodb::core {

/// Experiment control.
struct RunConfig {
  int warmup_commits = 200;     ///< commits discarded before measuring
  int measure_commits = 2000;   ///< commits in the measurement window
  double max_sim_seconds = 36000;  ///< hard cap on simulated time
  std::uint64_t max_events = 400'000'000;  ///< hard cap on events (hang guard)
  bool record_history = false;  ///< record commits for serializability checks
  int ci_batches = 20;          ///< batch-means batches for the response CI
};

/// Results of one simulation run (measurement window only).
struct RunResult {
  config::Protocol protocol = config::Protocol::kPS;
  double throughput = 0;  ///< committed transactions per simulated second
  metrics::ConfidenceInterval response_time;  ///< seconds, 90% CI
  double sim_seconds = 0;          ///< measurement window length
  std::uint64_t measured_commits = 0;
  metrics::Counters counters;      ///< counters for the measurement window
  std::uint64_t deadlocks = 0;     ///< deadlocks during measurement
  double server_cpu_util = 0;
  double avg_client_cpu_util = 0;
  double disk_util = 0;
  double network_util = 0;
  double msgs_per_commit = 0;
  bool stalled = false;  ///< event queue drained unexpectedly (protocol hang)
  bool serializable = true;     ///< only meaningful if history was recorded
  bool no_lost_updates = true;  ///< only meaningful if history was recorded
  /// The conflict cycle and/or the version gap or duplicate that failed the
  /// checks above ("; "-joined); empty when both hold.
  std::string history_violation;
  std::uint64_t events = 0;     ///< events processed during measurement

  // --- Latency distributions (always collected; pure observation) ----------
  metrics::Histogram response_hist;        ///< per-commit response time, s
  metrics::Histogram lock_wait_hist;       ///< per blocked lock acquire, s
  metrics::Histogram callback_round_hist;  ///< per callback fan-out round, s

  // --- Trace-derived decomposition (zeros unless tracing was enabled) ------
  /// Total seconds per trace::Phase summed over committed transactions.
  std::array<double, trace::kNumPhases> phase_seconds{};
  std::uint64_t breakdown_txns = 0;  ///< commits with a full decomposition
  /// Commits whose phase sum failed to match the response time exactly.
  std::uint64_t breakdown_violations = 0;
  std::uint64_t trace_events_dropped = 0;  ///< ring-buffer overflow count
  /// Serialized sinks (empty unless tracing was enabled).
  std::string trace_jsonl;
  std::string trace_chrome;
  /// Time-series telemetry JSONL sink (empty unless SystemParams::telemetry
  /// / PSOODB_TELEMETRY was enabled; see metrics/timeseries.h). Covers
  /// warmup and measurement — the summary line's measure_start marks the
  /// boundary. Never serialized into the results JSON.
  std::string telemetry_jsonl;

  // --- Wall-clock accounting (runs with several partitions only; reporting
  // only — wall time is nondeterministic, so these are never serialized into
  // results JSON and never feed the simulation) -----------------------------
  /// Wall seconds executing each partition's events (index = partition).
  std::vector<double> shard_busy_seconds;
  /// Wall seconds of shard_busy_seconds spent merging inbound outboxes
  /// into the partition heaps, summed over partitions.
  double shard_merge_seconds = 0;
  /// Wall seconds spent in the serial phase (hook + next-window
  /// computation).
  double shard_serial_seconds = 0;
  /// Sub-decomposition of the serial phase (bench_parallel_speedup reports
  /// these so serial-phase regressions are attributable): the caller hook
  /// total, and within it the cross-partition deadlock work (delta fold +
  /// cycle search + victim wake), telemetry sampling, and trace draining.
  double shard_serial_hook_seconds = 0;
  double shard_scan_seconds = 0;
  double shard_telemetry_seconds = 0;
  double shard_trace_seconds = 0;

  // --- Parallel-kernel counters (runs with several partitions only;
  // deterministic — pure functions of the event schedule — but
  // reporting-only and kept out of the results JSON with the fields above) --
  std::uint64_t shard_windows = 0;  ///< conservative windows executed
  /// Windows where an adaptive per-partition end ran past T_min + L.
  std::uint64_t shard_windows_stretched = 0;
  std::uint64_t shard_scans = 0;       ///< coordinator cycle searches
  std::uint64_t shard_full_scans = 0;  ///< forced by an imminent drain
  /// Searches answered by the zero-boundary proof without graph traversal.
  std::uint64_t shard_scans_skipped = 0;
  std::uint64_t shard_deltas_applied = 0;  ///< edge deltas folded
};

/// A fully wired simulated system. Construct, call Run() once, inspect.
class System {
 public:
  System(config::Protocol protocol, const config::SystemParams& params,
         const config::WorkloadParams& workload);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs warmup + measurement and returns the results.
  RunResult Run(const RunConfig& run = RunConfig{});

  /// True when SystemParams::sim_shards > 0 (or PSOODB_SIM_SHARDS) asks for
  /// server partitions. With several servers the run then has one event
  /// loop per server under the sim::ShardGroup's windows; with one server it
  /// is the same one-partition run as sim_shards = 0.
  bool partitioned() const { return params_.sim_shards > 0; }

  // --- Introspection (tests, examples) ------------------------------------
  /// Partition 0's event loop (with one partition, the only one).
  sim::Simulation& simulation() { return shards_->sim(0); }
  Server& server(int i = 0) { return *servers_.at(i); }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  /// Partition 0's deadlock detector (each partition has its own; with
  /// several, the cross-partition coordinator runs in the window serial
  /// phase).
  cc::DeadlockDetector& detector() { return *partitions_[0]->detector; }
  Client& client(int i) { return *clients_.at(i); }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  storage::Database& db() { return db_; }
  /// The commits Run() recorded, partition by partition (each in commit
  /// order); empty unless RunConfig::record_history.
  const History& history() const { return history_; }
  const config::SystemParams& params() const { return params_; }
  config::Protocol protocol() const { return protocol_; }
  /// The protocol invariant checker, or null unless enabled via
  /// SystemParams::invariant_checks or the PSOODB_INVARIANTS environment
  /// variable (and the run has one partition).
  check::InvariantChecker* invariants() { return invariants_.get(); }
  /// The time-series telemetry registry, or null unless enabled via
  /// SystemParams::telemetry or PSOODB_TELEMETRY. Retains its sampled rows
  /// after Run() — psoodb_doctor reads peak queue depths and stall windows
  /// through it.
  metrics::TimeSeries* telemetry() { return telemetry_.get(); }

 private:
  /// Everything owned per event-loop partition. The partition's servers/
  /// clients live in servers_/clients_ as usual but are wired to this
  /// partition's context/transport/detector/tracer.
  struct Partition {
    std::unique_ptr<resources::Network> network;
    std::unique_ptr<Transport> transport;
    std::unique_ptr<cc::DeadlockDetector> detector;
    std::unique_ptr<trace::Tracer> tracer;  ///< null unless tracing
    std::unique_ptr<SystemContext> ctx;
    metrics::Counters counters;
    metrics::LatencyRecorder latency;
    /// (commit time, response time) per commit, in partition event order.
    std::vector<std::pair<double, double>> responses;
    /// This partition's commits, when RunConfig::record_history.
    History history;
  };

  /// Builds the telemetry registry (all three instrumentation layers) once
  /// servers and clients exist; no-op unless params_.telemetry.
  void BuildTelemetry();
  /// One serial-phase step of cross-partition deadlock handling: folds every
  /// detector's edge deltas into the coordinator's union graph, retires
  /// victims whose abort was observed, runs the (incremental, or full when
  /// `force_full`) cycle search, and marks + wakes one victim per cycle.
  void CrossPartitionDeadlockStep(bool force_full);

  config::Protocol protocol_;
  config::SystemParams params_;      // owned copies: callers may pass temporaries
  config::WorkloadParams workload_;
  storage::Database db_;
  History history_;
  // ~System tears the ShardGroup (and its Simulations) down before the
  // partitions.
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::unique_ptr<sim::ShardGroup> shards_;
  // Several partitions only (null otherwise).
  /// Incremental cross-partition deadlock coordination. Touched only from
  /// the window serial phase (all workers parked at the barrier), hence
  /// shard-shared in the annotation scheme checked by psoodb-analyze.
  std::unique_ptr<cc::DeadlockCoordinator> coordinator_ PSOODB_SHARD_SHARED;
  /// When set (PSOODB_INVARIANTS / SystemParams::invariant_checks), every
  /// coordinator scan is cross-validated against the union of the per-
  /// partition detectors' Edges() (check::ValidateDeadlockCoordinator).
  bool validate_coordinator_ = false;
  // Serial-phase scratch, reused across windows to avoid reallocation.
  std::vector<cc::EdgeDelta> delta_scratch_ PSOODB_SHARD_SHARED;
  std::vector<cc::DeadlockCoordinator::Victim> victim_scratch_
      PSOODB_SHARD_SHARED;
  std::vector<storage::TxnId> pending_scratch_ PSOODB_SHARD_SHARED;
  // Serial-phase sub-decomposition accumulators (wall clock; reporting
  // only — see RunResult::shard_scan_seconds and friends).
  double scan_seconds_ PSOODB_SHARD_SHARED = 0;
  double telemetry_seconds_ PSOODB_SHARD_SHARED = 0;
  double trace_seconds_ PSOODB_SHARD_SHARED = 0;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<check::InvariantChecker> invariants_;
  std::unique_ptr<metrics::TimeSeries> telemetry_;
  bool started_ = false;
};

/// Convenience one-shot: build a System and run it.
RunResult RunSimulation(config::Protocol protocol,
                        const config::SystemParams& params,
                        const config::WorkloadParams& workload,
                        const RunConfig& run = RunConfig{});

}  // namespace psoodb::core

#endif  // PSOODB_CORE_SYSTEM_H_
