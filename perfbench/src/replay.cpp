#include "replay.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "cc/deadlock_detector.h"
#include "cc/lock_manager.h"
#include "metrics/timeseries.h"
#include "resources/cpu.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "spans.h"
#include "storage/lru_cache.h"
#include "trace/trace.h"
#include "util/check.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace cc = psoodb::cc;
namespace metrics = psoodb::metrics;
namespace resources = psoodb::resources;
namespace sim = psoodb::sim;
namespace storage = psoodb::storage;
namespace trace = psoodb::trace;
namespace workload = psoodb::workload;

// Operation counts: each replay takes tens of milliseconds.
constexpr std::uint64_t kSimEvents = 400'000;
constexpr int kLockOps = 200'000;
constexpr int kDetectorOps = 200'000;
constexpr int kLruOps = 400'000;
constexpr int kTxns = 4'000;
constexpr int kCpuRequests = 200'000;
constexpr int kTraceEvents = 1 << 16;
constexpr int kTelemetryRows = 20'000;

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Each hop is one Delay plus a timeout-style callback that the next hop
// cancels, the shape of the protocol handlers' guarded waits.
sim::Task Hopper(sim::Simulation& sim, std::uint64_t seed, int hops) {
  sim::Rng rng(seed);
  sim::EventId pending = 0;
  for (int i = 0; i < hops; ++i) {
    co_await sim.Delay(rng.Uniform(0.0, 1.0));
    sim.Cancel(pending);
    pending = sim.ScheduleCallback(sim.now() + 2.0, [] {});
  }
}

double SimReplay(const ReplaySizes& sz) {
  sim::Simulation sim;
  const std::size_t procs = std::max<std::size_t>(sz.live_processes, 1);
  const int hops = static_cast<int>(std::max<std::uint64_t>(
      kSimEvents / procs, 1));
  for (std::size_t p = 0; p < procs; ++p) sim.Spawn(Hopper(sim, p + 1, hops));
  const auto t0 = std::chrono::steady_clock::now();
  sim.Run();
  const double s = Since(t0);
  return 1e9 * s / static_cast<double>(sim.events_processed());
}

// One transaction's X locks: pages from the lower half of the database,
// objects of the matching pages of the upper half, so page and object locks
// of one transaction never overlap.
sim::Task LockTxn(cc::LockManager& lm, const std::vector<storage::PageId>& pages,
                  int half, int objects_per_page, int opp, storage::TxnId txn) {
  for (storage::PageId p : pages) co_await lm.AcquirePageX(p, txn, 0);
  for (storage::PageId p : pages) {
    const storage::PageId op = p + half;
    for (int o = 0; o < objects_per_page; ++o) {
      const storage::ObjectId oid =
          static_cast<storage::ObjectId>(op) * opp + o;
      co_await lm.AcquireObjectX(oid, op, txn, 0);
    }
  }
}

double LockReplay(const SliceSpec& spec) {
  sim::Simulation sim;
  cc::DeadlockDetector det;
  cc::LockManager lm(sim, det);
  sim::Rng rng(spec.sys.seed);
  const int half = std::max(spec.sys.db_pages / 2, 1);
  const int pages_per_txn = std::min(spec.wl.trans_size_pages, half);
  const int objs = std::max(1, static_cast<int>(spec.wl.AvgLocality() / 4));
  const int ops_per_txn = pages_per_txn * (1 + objs);
  const int txns = std::max(kLockOps / ops_per_txn, 1);
  std::vector<storage::PageId> pages(static_cast<std::size_t>(pages_per_txn));
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 1; t <= txns; ++t) {
    for (storage::PageId& p : pages) {
      p = static_cast<storage::PageId>(rng.UniformInt(0, half - 1));
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    sim.Spawn(LockTxn(lm, pages, half, objs, spec.sys.objects_per_page,
                      static_cast<storage::TxnId>(t)));
    sim.Run();
    lm.ReleaseAll(static_cast<storage::TxnId>(t));
    pages.resize(static_cast<std::size_t>(pages_per_txn));
  }
  const double s = Since(t0);
  return 1e9 * s / (static_cast<double>(txns) * ops_per_txn);
}

// Waits-for chains as long as the client count: each waiter blocks on the
// next, the cycle check walks the chain, and every wait is cleared.
double DetectorReplay(const SliceSpec& spec) {
  cc::DeadlockDetector det;
  const int chain = std::max(spec.sys.num_clients, 2);
  const int rounds = std::max(kDetectorOps / chain, 1);
  std::vector<storage::TxnId> holder(1);
  storage::TxnId base = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < chain; ++i) {
      holder[0] = base + static_cast<storage::TxnId>(i) + 1;
      det.OnWait(base + static_cast<storage::TxnId>(i), holder);
    }
    PSOODB_CHECK(!det.HasCycleFrom(base), "replay chain has no cycle");
    for (int i = 0; i < chain; ++i) {
      det.ClearWaits(base + static_cast<storage::TxnId>(i));
    }
    base += static_cast<storage::TxnId>(chain) + 1;
  }
  const double s = Since(t0);
  return 1e9 * s / (static_cast<double>(rounds) * chain);
}

// Client-cache traffic at the workload's buffer size and measured hit ratio:
// a hit re-reads a recently inserted key, a miss inserts a fresh one.
double LruReplay(const ReplaySizes& sz, std::uint64_t seed) {
  const std::size_t cap =
      static_cast<std::size_t>(std::max(sz.client_buf_pages, 2));
  storage::LruCache<int, int> cache(cap);
  std::vector<int> recent(std::max<std::size_t>(std::min<std::size_t>(
                              cap / 2, 1024), 1));
  std::size_t recent_next = 0, recent_size = 0;
  int next_key = 0;
  sim::Rng rng(seed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kLruOps; ++i) {
    const bool hit = recent_size > 0 && rng.Bernoulli(sz.cache_hit_ratio);
    const int key = hit ? recent[rng.UniformInt(
                              0, static_cast<std::int64_t>(recent_size) - 1)]
                        : next_key++;
    if (cache.Get(key) != nullptr) continue;
    *cache.Insert(key).value = key;
    recent[recent_next] = key;
    recent_next = (recent_next + 1) % recent.size();
    recent_size = std::min(recent_size + 1, recent.size());
  }
  const double s = Since(t0);
  return 1e9 * s / kLruOps;
}

double TxnReplay(const SliceSpec& spec) {
  workload::TransactionSource src(spec.wl, spec.sys, 0, spec.sys.seed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTxns; ++i) src.NextTransaction();
  const double s = Since(t0);
  return 1e6 * s / kTxns;
}

sim::Task CpuUser(resources::Cpu& cpu, int requests, double sys_inst,
                  double user_inst) {
  for (int i = 0; i < requests; ++i) {
    if (i % 2 == 0) {
      co_await cpu.System(sys_inst);
    } else {
      co_await cpu.User(user_inst);
    }
  }
}

// The server CPU under as many concurrent requesters as there are clients
// (capped), alternating FIFO system work and processor-sharing user work.
double CpuReplay(const SliceSpec& spec) {
  sim::Simulation sim;
  resources::Cpu cpu(sim, spec.sys.server_mips);
  const int users = std::clamp(spec.sys.num_clients, 1, 64);
  const int per_user = kCpuRequests / users;
  for (int u = 0; u < users; ++u) {
    sim.Spawn(CpuUser(cpu, per_user, spec.sys.fixed_msg_inst,
                      spec.sys.object_inst * (1 + u % 3)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.Run();
  const double s = Since(t0);
  return 1e9 * s / (static_cast<double>(users) * per_user);
}

// A full ring of message/lock events, then the JSONL sink.
double TraceReplay(const SliceSpec& spec) {
  sim::Simulation sim;
  trace::Tracer tracer(sim, kTraceEvents, -1);
  constexpr trace::EventKind kKinds[] = {
      trace::EventKind::kMsgSend, trace::EventKind::kMsgRecv,
      trace::EventKind::kLockWait, trace::EventKind::kCallbackIssue,
      trace::EventKind::kLocalGrant};
  trace::TraceMeta meta;
  meta.protocol = "replay";
  meta.num_clients = spec.sys.num_clients;
  meta.num_servers = spec.sys.num_servers;
  meta.seed = spec.sys.seed;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTraceEvents; ++i) {
    tracer.Emit(kKinds[i % 5], i % 10, static_cast<std::uint64_t>(i / 16 + 1),
                i % 1250, 4096, i % 7, -1);
  }
  PSOODB_CHECK(!tracer.SerializeJsonl(meta).empty(), "empty trace sink");
  const double s = Since(t0);
  return 1e9 * s / kTraceEvents;
}

double TelemetryReplay(const ReplaySizes& sz) {
  metrics::TimeSeries ts(0.25);
  std::vector<double> state(static_cast<std::size_t>(
      std::max(sz.telemetry_tracks, 1)));
  for (std::size_t i = 0; i < state.size(); ++i) {
    double* v = &state[i];
    ts.AddGauge("g" + std::to_string(i), [v] { return *v; });
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 1; r <= kTelemetryRows; ++r) {
    state[static_cast<std::size_t>(r) % state.size()] += 1;
    ts.SampleUpTo(0.25 * r);
  }
  const double s = Since(t0);
  return 1e6 * s / static_cast<double>(ts.num_rows());
}

}  // namespace

ReplayCosts RunReplays(const SliceSpec& spec, const ReplaySizes& sizes,
                       SpanLog* log, int parent) {
  ReplayCosts c;
  {
    ScopedSpan span(log, "layer.sim", parent);
    c.sim_ns_per_event = SimReplay(sizes);
  }
  {
    ScopedSpan span(log, "layer.cc.lock", parent);
    c.lock_ns = LockReplay(spec);
  }
  {
    ScopedSpan span(log, "layer.cc.detector", parent);
    c.detector_ns = DetectorReplay(spec);
  }
  {
    ScopedSpan span(log, "layer.storage", parent);
    c.lru_ns = LruReplay(sizes, spec.sys.seed);
  }
  {
    ScopedSpan span(log, "layer.workload", parent);
    c.txn_us = TxnReplay(spec);
  }
  {
    ScopedSpan span(log, "layer.resources", parent);
    c.cpu_ns = CpuReplay(spec);
  }
  {
    ScopedSpan span(log, "layer.trace", parent);
    c.emit_ns = TraceReplay(spec);
  }
  {
    ScopedSpan span(log, "layer.metrics", parent);
    c.sample_us = TelemetryReplay(sizes);
  }
  return c;
}

}  // namespace perfbench
