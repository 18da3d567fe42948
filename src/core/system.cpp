#include "core/system.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "check/invariants.h"
#include "core/os.h"
#include "core/ps.h"
#include "core/ps_aa.h"
#include "core/ps_oa.h"
#include "core/ps_oo.h"
#include "core/ps_wt.h"
#include "util/check.h"
#include "util/env.h"

namespace psoodb::core {

using config::Protocol;

System::System(Protocol protocol, const config::SystemParams& params,
               const config::WorkloadParams& workload)
    : protocol_(protocol),
      params_(params),
      workload_(workload),
      db_(params.db_pages, params.objects_per_page) {
  PSOODB_CHECK(params_.objects_per_page <= storage::kMaxObjectsPerPage,
               "objects_per_page=%d exceeds bitmask width %d",
               params_.objects_per_page, storage::kMaxObjectsPerPage);
  PSOODB_CHECK(workload_.custom_generator ||
                   static_cast<int>(workload_.client_regions.size()) >=
                       params_.num_clients,
               "workload must define regions for every client (or be custom)");
  // Under Callback Locking a cached copy is the read permission, so a
  // transaction's whole footprint stays pinned in the client cache until it
  // ends. The cache must therefore be able to hold one transaction.
  if (workload_.custom_generator) {
    PSOODB_CHECK(workload_.custom_max_pages > 0,
                 "custom workloads must declare custom_max_pages");
    PSOODB_CHECK(params_.client_buf_pages() >= workload_.custom_max_pages + 2,
                 "client cache smaller than a custom transaction's footprint");
  } else {
    const int spread = workload_.layout_swaps.empty() ? 1 : 2;
    const int page_footprint = workload_.trans_size_pages * spread + 2;
    PSOODB_CHECK(params_.client_buf_pages() >= page_footprint,
                 "client cache (%d pages) smaller than a transaction\'s page "
                 "footprint (%d)",
                 params_.client_buf_pages(), page_footprint);
    if (protocol == Protocol::kOS) {
      const int obj_footprint =
          workload_.trans_size_pages * workload_.page_locality_max + 2;
      PSOODB_CHECK(params_.client_buf_objects() >= obj_footprint,
                   "client object cache (%d) smaller than a transaction\'s "
                   "footprint (%d)",
                   params_.client_buf_objects(), obj_footprint);
    }
  }

  // Apply workload-defined object relocations (Interleaved PRIVATE).
  for (auto [a, b] : workload_.layout_swaps) db_.layout().Swap(a, b);

  // Environment overrides land in this System's own params copy, so
  // different systems in one process can still be configured differently
  // programmatically.
  if (const char* env = std::getenv("PSOODB_TRACE");
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
    params_.trace = true;
  }
  // Numeric overrides are validated: empty, garbage or trailing junk
  // ("4x") keeps the programmatic value (with a warning for the latter two)
  // instead of reading as 0 or a prefix.
  params_.trace_page = util::EnvInt("PSOODB_TRACE_PAGE", params_.trace_page);
  params_.sim_shards = util::EnvInt("PSOODB_SIM_SHARDS", params_.sim_shards);
  // Unlike PSOODB_TRACE (enable-only), "0" force-disables: the scaled
  // figure benches default telemetry *on*, and the environment must be able
  // to turn it back off.
  if (const char* env = std::getenv("PSOODB_TELEMETRY");
      env != nullptr && env[0] != '\0') {
    params_.telemetry = !(env[0] == '0' && env[1] == '\0');
  }
  if (const double tick =
          util::EnvDouble("PSOODB_TELEMETRY_TICK", params_.telemetry_tick);
      tick > 0) {
    params_.telemetry_tick = tick;
  } else if (tick != params_.telemetry_tick) {
    std::fprintf(stderr,
                 "warning: PSOODB_TELEMETRY_TICK=%g is not positive; using "
                 "default %g\n",
                 tick, params_.telemetry_tick);
  }

  // The layout: P event-loop partitions, each with its own network segment,
  // transport, detector, tracer, counters and latency recorders. One
  // partition holding every node on one shared network is the paper's
  // model; sim_shards > 0 with several servers gives each server and its
  // home clients a partition. P is fixed by num_servers — sim_shards only
  // bounds the worker-thread count — so results are byte-identical at every
  // sim_shards >= 1 (see sim/shard.h).
  const int P = params_.sim_shards > 0 ? params_.num_servers : 1;
  // Server i lives in partition i. A client is homed on the partition of the
  // server its region-0 (hot) pages live on, so the bulk of its traffic
  // stays intra-partition; custom workloads fall back to round-robin.
  auto server_partition = [P](int i) { return P > 1 ? i : 0; };
  std::vector<int> client_partition(
      static_cast<std::size_t>(params_.num_clients), 0);
  if (P > 1) {
    PSOODB_CHECK(params_.cross_partition_latency > 0,
                 "partitioned runs need cross_partition_latency > 0 "
                 "(it is the conservative lookahead)");
    for (int c = 0; c < params_.num_clients; ++c) {
      int home = c % P;
      if (static_cast<std::size_t>(c) < workload_.client_regions.size() &&
          !workload_.client_regions[static_cast<std::size_t>(c)].empty()) {
        const config::RegionSpec& r =
            workload_.client_regions[static_cast<std::size_t>(c)].front();
        home = params_.ServerOfPage((r.lo + r.hi) / 2);
      }
      client_partition[static_cast<std::size_t>(c)] = home;
    }
  }
  shards_ = std::make_unique<sim::ShardGroup>(
      P, std::min(params_.sim_shards, P), params_.cross_partition_latency);
  for (int p = 0; p < P; ++p) {
    auto part = std::make_unique<Partition>();
    sim::Simulation& psim = shards_->sim(p);
    part->network =
        std::make_unique<resources::Network>(psim, params_.network_mbps);
    part->transport = std::make_unique<Transport>(psim, *part->network,
                                                  params_, part->counters);
    part->detector = std::make_unique<cc::DeadlockDetector>();
    part->ctx = std::make_unique<SystemContext>(
        SystemContext{psim, params_, db_, part->counters, *part->transport,
                      part->detector.get(), nullptr, {}});
    // Disjoint txn-id residue classes: txn % P recovers the home partition
    // (the tracer and the deadlock coordinator rely on it).
    part->ctx->txn_stride = P;
    part->ctx->txn_offset = p;
    // The tracer must exist before clients/servers are built: they latch the
    // pointer (clients via LocalTxnLocks::AttachTracing, servers via the lock
    // manager) at construction time.
    if (params_.trace) {
      part->tracer = std::make_unique<trace::Tracer>(
          psim, static_cast<std::size_t>(params_.trace_buffer_events),
          params_.trace_page);
      part->tracer->ConfigurePartition(p, P);
      part->ctx->tracer = part->tracer.get();
    }
    part->ctx->latency = &part->latency;
    part->ctx->responses = &part->responses;
    part->transport->set_tracer(part->tracer.get());
    partitions_.push_back(std::move(part));
  }
  if (P > 1) {
    // Cross-partition wiring: point-to-point links between the partitions'
    // transports, and edge-delta logs for the serial-phase coordinator.
    coordinator_ = std::make_unique<cc::DeadlockCoordinator>(P);
    const double link_spb = 8.0 / (params_.network_mbps * 1e6);
    std::vector<Transport*> peers;
    peers.reserve(partitions_.size());
    for (auto& part : partitions_) peers.push_back(part->transport.get());
    for (int p = 0; p < P; ++p) {
      Partition& part = *partitions_[static_cast<std::size_t>(p)];
      part.transport->ConfigurePartition(
          shards_.get(), p, params_.cross_partition_latency, link_spb);
      part.transport->SetPeers(peers);
      part.transport->SetClientPartitions(client_partition);
      part.detector->EnableDeltaLog();
    }
  }

  // One server per data partition; clients route requests by page. Each
  // node is built against its home partition's context (its event loop,
  // transport, counters, ...).
  auto server_ctx = [&](int i) -> SystemContext& {
    return *partitions_[static_cast<std::size_t>(server_partition(i))]->ctx;
  };
  auto client_ctx = [&](int c) -> SystemContext& {
    return *partitions_[static_cast<std::size_t>(
                            client_partition[static_cast<std::size_t>(c)])]
                ->ctx;
  };

  // Every protocol builds the same way: its servers, then its clients wired
  // to them.
  auto build = [&]<typename S, typename C>() {
    std::vector<Server*> srvs;
    for (int i = 0; i < params_.num_servers; ++i) {
      srvs.push_back(
          servers_.emplace_back(std::make_unique<S>(server_ctx(i), i)).get());
    }
    for (int c = 0; c < params_.num_clients; ++c) {
      clients_.emplace_back(
          std::make_unique<C>(client_ctx(c), c, workload_, srvs));
    }
  };
  switch (protocol_) {
    case Protocol::kPS:
      build.operator()<PsServer, PsClient>();
      break;
    case Protocol::kOS:
      build.operator()<OsServer, OsClient>();
      break;
    case Protocol::kPSOO:
      build.operator()<PsOoServer, PsOoClient>();
      break;
    case Protocol::kPSOA:
      build.operator()<PsOaServer, PsOaClient>();
      break;
    case Protocol::kPSAA:
      build.operator()<PsAaServer, PsAaClient>();
      break;
    case Protocol::kPSWT:
      build.operator()<PsWtServer, PsWtClient>();
      break;
  }

  std::vector<Client*> raw;
  raw.reserve(clients_.size());
  for (auto& c : clients_) raw.push_back(c.get());
  for (auto& srv : servers_) srv->SetClients(raw);
  for (int i = 0; i < num_servers(); ++i) {
    Server& srv = server(i);
    srv.lock_manager().AttachTracing(server_ctx(i).tracer,
                                     &server_ctx(i).latency->lock_wait,
                                     srv.node());
  }

  if (params_.invariant_checks ||
      std::getenv("PSOODB_INVARIANTS") != nullptr) {
    if (P > 1) {
      // The full invariant checker sweeps cross-partition state (client
      // caches vs. server copy tables) with no synchronization; it only
      // works with one event loop. The one check that is safe with several
      // — the serial phase runs with all workers parked — is the
      // coordinator cross-validation: every scan, the incremental union
      // graph is compared against the per-partition Edges() rebuilt from
      // scratch (check::ValidateDeadlockCoordinator).
      validate_coordinator_ = true;
      std::fprintf(stderr,
                   "psoodb: invariant checking is unavailable in partitioned "
                   "runs (sim_shards > 0, several servers); only the "
                   "deadlock-coordinator cross-validation is enabled\n");
    } else {
      check::InvariantChecker::Options iopts;
      iopts.failfast = params_.invariant_failfast;
      iopts.event_period = params_.invariant_event_period;
      invariants_ = std::make_unique<check::InvariantChecker>(*this, iopts);
      partitions_[0]->ctx->invariants = invariants_.get();
    }
  }

  BuildTelemetry();
}

void System::BuildTelemetry() {
  if (!params_.telemetry) return;
  telemetry_ = std::make_unique<metrics::TimeSeries>(params_.telemetry_tick);
  metrics::TimeSeries& ts = *telemetry_;
  sim::ShardGroup* g = shards_.get();
  const int P = g->partitions();

  // Every probe is a pure observation of simulation state, evaluated only
  // from deterministic single-threaded contexts (after an event with one
  // partition, in the window serial phase with several) in this fixed
  // registration order — the sampled rows are byte-identical for any
  // worker-thread count. Layer totals are summed over partitions in
  // partition order.

  // --- Kernel layer --------------------------------------------------------
  auto summed = [g, P](auto per_sim) {
    return [g, P, per_sim] {
      double n = 0;
      for (int p = 0; p < P; ++p) {
        n += static_cast<double>((g->sim(p).*per_sim)());
      }
      return n;
    };
  };
  ts.AddGauge("kernel.live_events", summed(&sim::Simulation::live_events));
  ts.AddGauge("kernel.queue_size",
              summed(&sim::Simulation::event_queue_size));
  ts.AddGauge("kernel.live_processes",
              summed(&sim::Simulation::live_processes));
  ts.AddCounter("kernel.queue_compactions",
                summed(&sim::Simulation::queue_compactions));
  ts.AddCounter("kernel.events",
                [g] { return static_cast<double>(g->TotalEvents()); });
  if (P > 1) {
    ts.AddCounter("kernel.windows",
                  [g] { return static_cast<double>(g->windows()); });
    ts.AddCounter("kernel.windows_stretched", [g] {
      return static_cast<double>(g->windows_stretched());
    });
  }

  // --- Protocol layer ------------------------------------------------------
  // System-wide counters and the blocked-transaction gauge. Counters reset
  // once, at the warmup/measurement boundary.
  auto counter_track = [&](const char* name,
                           std::uint64_t metrics::Counters::* field) {
    ts.AddCounter(name, [this, field] {
      double n = 0;
      for (auto& p : partitions_) {
        n += static_cast<double>(p->counters.*field);
      }
      return n;
    });
  };
  counter_track("commits", &metrics::Counters::commits);
  counter_track("aborts", &metrics::Counters::aborts);
  counter_track("callbacks_sent", &metrics::Counters::callbacks_sent);
  counter_track("msgs", &metrics::Counters::msgs_total);
  ts.AddGauge("blocked_txns", [this] {
    double n = 0;
    for (auto& p : partitions_) {
      n += static_cast<double>(p->detector->parked());
    }
    return n;
  });

  // --- Per-server protocol + storage gauges --------------------------------
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    Server* srv = servers_[i].get();
    const std::string prefix = "server" + std::to_string(i);
    ts.AddGauge(prefix + ".lock_queue_depth", [srv] {
      return static_cast<double>(srv->lock_manager().waiting());
    });
    ts.AddGauge(prefix + ".cb_rounds", [srv] {
      return static_cast<double>(srv->callback_rounds_inflight());
    });
    ts.AddGauge(prefix + ".dirty_pages", [srv] {
      return static_cast<double>(srv->dirty_pages());
    });
    ts.AddGauge(prefix + ".disk_queue", [srv] {
      return static_cast<double>(srv->disks().QueueLength());
    });
    ts.AddGauge(prefix + ".buf_hit_ratio", [srv] {
      const std::uint64_t lookups = srv->buffer_lookups();
      return lookups > 0 ? static_cast<double>(srv->buffer_hits()) /
                               static_cast<double>(lookups)
                         : 0.0;
    });
  }

  // --- Windowed latency histograms (+ per-partition window health) ---------
  // One partition writes the unprefixed lat.* tracks; several write them per
  // partition, beside each partition's outbox, stall and lag tracks.
  for (int p = 0; p < P; ++p) {
    Partition* pp = partitions_[static_cast<std::size_t>(p)].get();
    const std::string prefix = P > 1 ? "shard" + std::to_string(p) + "." : "";
    ts.AddWindowedHistogram(prefix + "lat.response", &pp->latency.response);
    ts.AddWindowedHistogram(prefix + "lat.lock_wait", &pp->latency.lock_wait);
    ts.AddWindowedHistogram(prefix + "lat.cb_round",
                            &pp->latency.callback_round);
    if (P == 1) break;
    ts.AddGauge(prefix + "outbox_depth",
                [g, p] { return static_cast<double>(g->OutboxDepth(p)); });
    ts.AddCounter(prefix + "stall_s", [g, p] { return g->stall_seconds(p); });
    ts.AddGauge(prefix + "lag", [g, p] {
      return std::max(0.0, g->window_end() - g->sim(p).now());
    });
  }
}

System::~System() {
  // The Simulations must die first: destroying one destroys every suspended
  // process, whose awaitable destructors unregister from resource queues and
  // condition variables that must still be alive. Afterwards the remaining
  // members (clients, servers, transports, networks) tear down with empty
  // queues.
  shards_.reset();
}

RunResult System::Run(const RunConfig& run) {
  PSOODB_CHECK(!started_, "System::Run may be called once");
  started_ = true;
  const int P = shards_->partitions();

  for (auto& part : partitions_) {
    part->ctx->history = run.record_history ? &part->history : nullptr;
  }
  for (auto& c : clients_) c->Start();

  RunResult result;
  result.protocol = protocol_;

  // --- Warmup/measurement state machine -------------------------------------
  const std::uint64_t warmup_target =
      static_cast<std::uint64_t>(run.warmup_commits);
  const std::uint64_t measure_target =
      static_cast<std::uint64_t>(run.measure_commits);

  bool measuring = false;
  bool warmup_capped = false;
  sim::SimTime measure_start = 0;
  std::uint64_t measure_start_events = 0;
  std::uint64_t warmup_deadlocks = 0;
  std::uint64_t warmup_lock_waits = 0;

  auto total_deadlocks = [&] {
    std::uint64_t n = 0;
    for (auto& part : partitions_) n += part->detector->deadlocks_detected();
    return n;
  };
  auto total_lock_waits = [&] {
    std::uint64_t n = 0;
    for (auto& srv : servers_) n += srv->lock_manager().lock_waits();
    return n;
  };
  // Warmup -> measurement boundary: reset every statistic (with several
  // partitions, in the serial phase while all workers are parked).
  auto reset_for_measurement = [&] {
    warmup_deadlocks = total_deadlocks();
    warmup_lock_waits = total_lock_waits();
    for (auto& part : partitions_) {
      part->counters.Reset();
      part->responses.clear();
      part->latency.Reset();
      part->network->ResetStats();
      if (part->tracer) part->tracer->ResetMeasurement();
    }
    for (auto& srv : servers_) {
      srv->cpu().ResetStats();
      srv->disks().ResetStats();
    }
    for (auto& c : clients_) c->cpu().ResetStats();
    measure_start = shards_->GlobalNow();
    measure_start_events = shards_->TotalEvents();
    if (telemetry_) telemetry_->MarkMeasureStart(measure_start);
    measuring = true;
  };
  // The max_events / max_sim_seconds caps, counted from the current phase's
  // start (event 0 and time 0 during warmup).
  auto capped = [&](std::uint64_t events, sim::SimTime now) {
    return events - measure_start_events > run.max_events ||
           now - measure_start > run.max_sim_seconds;
  };

  // One partition: the current phase's commit target is checked before the
  // first event and after every event, behind the invariant checker,
  // telemetry and the caps. The warmup target starts the measurement at
  // once, so the measurement target is checked on the same event.
  sim::Simulation& sim0 = shards_->sim(0);
  const metrics::Counters& counters0 = partitions_[0]->counters;
  std::uint64_t target = warmup_target;
  auto target_met = [&] {
    if (counters0.commits < target) return false;
    if (measuring) return true;
    reset_for_measurement();
    target = measure_target;
    return counters0.commits >= target;
  };
  // capped and target_met by value, so the per-event checks read the run
  // state directly rather than through two more closures.
  auto after_event = [&, capped, target_met](sim::ShardGroup&) {
    if (invariants_) invariants_->OnEvent();
    if (telemetry_) telemetry_->SampleUpTo(sim0.now());
    if (capped(sim0.events_processed(), sim0.now())) {
      warmup_capped = !measuring;
      return true;
    }
    return target_met();
  };

  // Several partitions: the serial phase of every window. The measurement
  // starts at the window that meets the warmup target, and its target is
  // first checked at the next one.
  sim::SimTime next_deadlock_scan = 0;
  auto after_window = [&](sim::ShardGroup& g) -> bool {
    if (telemetry_) {
      // Sample in the serial phase (workers parked): every probe reads
      // partition state at a deterministic point of the window sequence.
      const auto t0 = std::chrono::steady_clock::now();  // det-ok: wall-clock serial-phase accounting; never feeds the simulation
      telemetry_->SampleUpTo(g.GlobalNow());
      telemetry_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)  // det-ok: wall-clock serial-phase accounting; never feeds the simulation
              .count();
    }
    // Move cross-partition trace attributions to their home tracers in a
    // fixed (home, source) order so phase sums are thread-count independent.
    if (params_.trace) {
      const auto t0 = std::chrono::steady_clock::now();  // det-ok: wall-clock serial-phase accounting; never feeds the simulation
      for (int home = 0; home < P; ++home) {
        for (int src = 0; src < P; ++src) {
          if (src == home) continue;
          partitions_[static_cast<std::size_t>(src)]
              ->tracer->DrainRemoteAttributions(
                  home, *partitions_[static_cast<std::size_t>(home)]->tracer);
        }
      }
      trace_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)  // det-ok: wall-clock serial-phase accounting; never feeds the simulation
              .count();
    }
    // Cross-partition cycle scan, throttled by simulated time: under load
    // some detector's edge set moves nearly every window, so scanning every
    // window would dominate the serial phase. Cycles spanning partitions
    // tolerate the extra latency (their victims are parked); the one case
    // that cannot wait is a deadlock that drains every event heap — without
    // the scan's wake-up poke the run would stall — so an imminent drain
    // forces a full scan. GlobalNow() is a pure function of the event
    // sequence, so the throttle is thread-count independent.
    sim::SimTime next_event;
    const bool draining = !g.NextEventTime(&next_event);
    if (draining || g.GlobalNow() >= next_deadlock_scan) {
      const auto t0 = std::chrono::steady_clock::now();  // det-ok: wall-clock serial-phase accounting; never feeds the simulation
      CrossPartitionDeadlockStep(/*force_full=*/draining);
      scan_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)  // det-ok: wall-clock serial-phase accounting; never feeds the simulation
              .count();
      next_deadlock_scan = g.GlobalNow() + params_.cross_deadlock_interval;
    }
    std::uint64_t commits = 0;
    for (auto& part : partitions_) commits += part->counters.commits;
    if (!measuring) {
      if (commits >= warmup_target) {
        reset_for_measurement();
        return false;
      }
      warmup_capped = capped(g.TotalEvents(), g.GlobalNow());
      return warmup_capped;
    }
    return commits >= measure_target || capped(g.TotalEvents(), g.GlobalNow());
  };

  sim::ShardGroup::RunResult rr;
  if (P > 1) {
    rr = shards_->Run(after_window);
  } else if (!target_met()) {
    rr = shards_->Run(after_event);
  }
  // If the run ended during warmup (stall or cap), report an empty
  // measurement window.
  if (!measuring) reset_for_measurement();

  // --- Results ---------------------------------------------------------------
  // A final full sweep so short runs (and the run's end state) are covered
  // even when fewer than event_period events separate the last two sweeps.
  if (invariants_) invariants_->CheckAll();
  result.stalled = rr.stalled || warmup_capped;
  result.sim_seconds = shards_->GlobalNow() - measure_start;
  for (auto& part : partitions_) result.counters.Add(part->counters);
  const metrics::Counters& merged = result.counters;
  result.measured_commits = merged.commits;
  result.throughput =
      result.sim_seconds > 0
          ? static_cast<double>(merged.commits) / result.sim_seconds
          : 0.0;
  // Merge per-partition response sequences by (commit time, partition).
  // Each partition's sequence is already in commit-time order, so this is a
  // deterministic total order, independent of the worker-thread count.
  struct Resp {
    double end;
    int part;
    std::size_t idx;
    double rt;
  };
  std::vector<Resp> resp;
  for (int p = 0; p < P; ++p) {
    const auto& rs = partitions_[static_cast<std::size_t>(p)]->responses;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      resp.push_back({rs[i].first, p, i, rs[i].second});
    }
  }
  std::sort(resp.begin(), resp.end(), [](const Resp& a, const Resp& b) {
    if (a.end != b.end) return a.end < b.end;
    if (a.part != b.part) return a.part < b.part;
    return a.idx < b.idx;
  });
  std::vector<double> response_times;
  response_times.reserve(resp.size());
  for (const Resp& r : resp) response_times.push_back(r.rt);
  result.response_time =
      metrics::BatchMeansCI(response_times, run.ci_batches, 0.90);
  result.deadlocks = total_deadlocks() - warmup_deadlocks;
  result.counters.deadlocks = result.deadlocks;
  result.counters.lock_waits = total_lock_waits() - warmup_lock_waits;
  double cpu_util = 0, disk_util = 0;
  for (auto& srv : servers_) {
    cpu_util += srv->cpu().Utilization();
    disk_util += srv->disks().AverageUtilization();
  }
  // Multi-server: report the average utilization across partition servers
  // (and network segments).
  result.server_cpu_util = cpu_util / static_cast<double>(servers_.size());
  result.disk_util = disk_util / static_cast<double>(servers_.size());
  double net_util = 0;
  for (auto& part : partitions_) net_util += part->network->Utilization();
  result.network_util = net_util / static_cast<double>(P);
  double client_util = 0;
  for (auto& c : clients_) client_util += c->cpu().Utilization();
  result.avg_client_cpu_util =
      clients_.empty() ? 0
                       : client_util / static_cast<double>(clients_.size());
  result.msgs_per_commit =
      merged.commits > 0 ? static_cast<double>(merged.msgs_total) /
                               static_cast<double>(merged.commits)
                         : 0.0;
  result.events = shards_->TotalEvents() - measure_start_events;
  if (run.record_history) {
    // Both verdicts are independent of the commits' order; partition order
    // is fixed, so history() and any witness are the same at every
    // worker-thread count.
    for (auto& part : partitions_) history_.Append(std::move(part->history));
    std::string cycle, lost;
    result.serializable = history_.IsSerializable(&cycle);
    result.no_lost_updates = history_.NoLostUpdates(&lost);
    result.history_violation =
        lost.empty() ? cycle : cycle.empty() ? lost : cycle + "; " + lost;
  }
  if (P > 1) {
    result.shard_busy_seconds.reserve(static_cast<std::size_t>(P));
    double merge_total = 0;
    for (int p = 0; p < P; ++p) {
      result.shard_busy_seconds.push_back(shards_->busy_seconds(p));
      merge_total += shards_->merge_seconds(p);
    }
    result.shard_merge_seconds = merge_total;
    result.shard_serial_seconds = shards_->serial_seconds();
    result.shard_serial_hook_seconds = shards_->serial_hook_seconds();
    result.shard_scan_seconds = scan_seconds_;
    result.shard_telemetry_seconds = telemetry_seconds_;
    result.shard_trace_seconds = trace_seconds_;
    result.shard_windows = rr.windows;
    result.shard_windows_stretched = shards_->windows_stretched();
    result.shard_scans = coordinator_->scans();
    result.shard_full_scans = coordinator_->full_scans();
    result.shard_scans_skipped = coordinator_->scans_skipped_no_boundary();
    result.shard_deltas_applied = coordinator_->deltas_applied();
  }
  // Latency histograms: merge in partition order (deterministic FP sums).
  for (auto& part : partitions_) {
    result.response_hist.Merge(part->latency.response);
    result.lock_wait_hist.Merge(part->latency.lock_wait);
    result.callback_round_hist.Merge(part->latency.callback_round);
  }
  if (telemetry_) {
    metrics::TimeSeries::Meta tmeta;
    tmeta.protocol = config::ProtocolName(protocol_);
    tmeta.num_clients = params_.num_clients;
    tmeta.num_servers = params_.num_servers;
    tmeta.seed = params_.seed;
    tmeta.partitions = P > 1 ? P : 0;
    result.telemetry_jsonl = telemetry_->SerializeJsonl(tmeta);
  }
  if (params_.trace) {
    std::vector<trace::Tracer*> tracers;
    tracers.reserve(partitions_.size());
    for (auto& part : partitions_) {
      trace::Tracer* t = part->tracer.get();
      for (int i = 0; i < trace::kNumPhases; ++i) {
        result.phase_seconds[static_cast<std::size_t>(i)] +=
            t->phase_totals()[i];
      }
      result.breakdown_txns += t->commits();
      result.breakdown_violations += t->violations();
      result.trace_events_dropped += t->events_dropped();
      tracers.push_back(t);
    }
    trace::TraceMeta meta;
    meta.protocol = config::ProtocolName(protocol_);
    meta.num_clients = params_.num_clients;
    meta.num_servers = params_.num_servers;
    meta.seed = params_.seed;
    const trace::MergedEvents events(tracers);
    result.trace_jsonl = trace::Tracer::SerializeJsonlMerged(events, meta);
    // Only the Chrome sink reads the telemetry counter tracks, so a
    // telemetry-only run never renders them.
    const std::string counter_fragment =
        telemetry_ ? telemetry_->RenderChromeCounters() : std::string();
    result.trace_chrome = trace::Tracer::SerializeChromeMerged(
        events, meta, counter_fragment.empty() ? nullptr : &counter_fragment);
  }
  return result;
}

void System::CrossPartitionDeadlockStep(bool force_full) {
  const int P = static_cast<int>(partitions_.size());
  // 1. Fold every partition's published edge deltas into the persistent
  // union graph, in partition order (deterministic fold order). has_deltas()
  // makes an unchanged partition an O(1) no-op.
  for (int p = 0; p < P; ++p) {
    cc::DeadlockDetector* det =
        partitions_[static_cast<std::size_t>(p)]->detector.get();
    if (det->has_deltas()) {
      delta_scratch_.clear();
      det->DrainDeltas(&delta_scratch_);
      coordinator_->Apply(p, delta_scratch_.data(), delta_scratch_.size());
    }
  }
  // 2. Retire victims whose abort has been observed (the detector erases
  // its mark in CheckVictim/RemoveTxn; txn ids are never reused). A retired
  // victim's residual edges rejoin future searches.
  if (!coordinator_->pending().empty()) {
    pending_scratch_ = coordinator_->pending();
    for (storage::TxnId t : pending_scratch_) {
      bool still_marked = false;
      for (auto& part : partitions_) {
        if (part->detector->IsVictim(t)) {
          still_marked = true;
          break;
        }
      }
      if (!still_marked) coordinator_->ClearPending(t);
    }
  }
  // 3. Cycle search: incremental over the dirty seeds, or every waiter when
  // forced (the scan-on-drain liveness rule). Nothing dirty means no new
  // edge since the last scan, hence no new cycle (the post-scan graph is
  // acyclic).
  if (!coordinator_->has_dirty() && !force_full) return;
  victim_scratch_.clear();
  coordinator_->Scan(force_full, &victim_scratch_);
  for (const cc::DeadlockCoordinator::Victim& v : victim_scratch_) {
    cc::DeadlockDetector& det =
        *partitions_[static_cast<std::size_t>(v.partition)]->detector;
    det.MarkVictim(v.txn);
    if (sim::CondVar* cv = det.WaitChannel(v.txn)) {
      // Wake it at its partition's window edge — the earliest time the
      // serial phase may inject an event there (sim/shard.h) — clamped to
      // the local clock as defence in depth (both are pure simulated-time
      // quantities, so the wake time stays deterministic). The wait loop
      // re-runs CheckVictim on wake, and its wait ends aborted.
      const sim::SimTime wake = std::max(
          shards_->window_end(v.partition), shards_->sim(v.partition).now());
      shards_->sim(v.partition)
          .ScheduleCallback(wake, [cv] { cv->NotifyAll(); });
    }
  }
  if (validate_coordinator_) {
    std::vector<const cc::DeadlockDetector*> dets;
    dets.reserve(partitions_.size());
    for (auto& part : partitions_) dets.push_back(part->detector.get());
    check::ValidateDeadlockCoordinator(*coordinator_, dets);
  }
}

RunResult RunSimulation(Protocol protocol, const config::SystemParams& params,
                        const config::WorkloadParams& workload,
                        const RunConfig& run) {
  System system(protocol, params, workload);
  return system.Run(run);
}

}  // namespace psoodb::core
