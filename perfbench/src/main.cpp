// perfbench: host-speed-normalised benchmark of the simulator.
//
// A run is a chain of short, seeded, independent core::System runs
// ("slices"); a fixed host-speed probe (probe.h) runs before every slice, and
// host time is reported as a ratio to the probe, so the host's speed drift
// cancels. The model's own result (committed transactions per simulated
// second) is exact for a given seed and is guarded alongside. Every slice
// whose result fails a correctness check counts as failed.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans PATH] [--max-events N]
//   --seconds    work budget: the run measures ceil(S x slices-per-second)
//                slices (a whole number of protocol cycles), a fixed count
//                so every model result repeats exactly for a given seed
//   --trace 1    the traced run: spans around every call into the simulator
//                plus per-layer replays; prints the per-layer metrics
//   --spans      where the traced run writes its span log (JSONL)
//   --max-events caps every slice's events (forces failures, for testing)
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The line before it carries the raw seconds behind the
// ratios (bench.run_s, bench.probe_s) so anyone can recompute them.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Partitioned slices of the traced run that are repeated on the other thread
// count (determinism guard and shard.speedup).
constexpr int kShardTwins = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
  std::uint64_t max_events = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      continue;
    }
    if (k == "--spans") {
      a->spans = v;
      continue;
    }
    if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--max-events") {
      a->max_events = std::strtoull(v, &end, 10);
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  // The budget bound keeps the slice count well inside an int.
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->seconds <= 3600 && (a->trace == 0 || a->trace == 1);
}

int SliceCount(double per_second, int multiple, double seconds) {
  const int n = static_cast<int>(std::ceil(per_second * seconds));
  return std::max(multiple, (n + multiple - 1) / multiple * multiple);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Ordered name -> (value, unit) list, printed as the result's metrics.
class Metrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    rows_.push_back({name, std::isfinite(value) ? value : 0, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", rows_[i].name, rows_[i].value,
                    rows_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Row {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

void PrintResult(bool correct, int attempted, int failed, const Metrics& m) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, m.Json().c_str());
}

void PrintInfo(const char* workload, std::uint64_t seed, int slices,
               double run_s, double probe_s, double setup_raw_s,
               std::uint64_t probe_checksum) {
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"slices\": %d, "
      "\"bench.run_s\": %.9f, \"bench.probe_s\": %.9f, \"setup_raw_s\": %.9f, "
      "\"probe_checksum\": %llu}}\n",
      workload, static_cast<unsigned long long>(seed), slices, run_s, probe_s,
      setup_raw_s, static_cast<unsigned long long>(probe_checksum));
}

void ReportFailure(int index, const SliceStats& st) {
  std::fprintf(stderr, "slice %d failed: %s (commits %llu, events %llu)\n",
               index, st.why.c_str(),
               static_cast<unsigned long long>(st.result.measured_commits),
               static_cast<unsigned long long>(st.result.events));
}

SliceSpec MakeSlice(const Workload& w, const Args& a, int index) {
  SliceSpec s = w.make(index, a.seed + static_cast<std::uint64_t>(index));
  if (a.max_events > 0) s.rc.max_events = a.max_events;
  return s;
}

// --- Timed run ---------------------------------------------------------------

int TimedRun(const Workload& w, const Args& a) {
  const int n = SliceCount(w.slices_per_second, w.slice_multiple, a.seconds);
  Probe probe(w.large_probe);
  // One untimed slice and probe first: allocator pools, page tables and
  // caches reach their steady state before anything is timed.
  if (w.make != nullptr) RunSlice(MakeSlice(w, a, 0), nullptr, -1);
  probe.Run();

  double wall = 0, probe_s = 0, setup_raw = 0, tput = 0;
  // Ratios per window of one protocol cycle; the run reports their medians,
  // so a burst of host noise that hits only a slice or only a probe moves
  // one window, not the result.
  std::vector<double> run_ratio, cpu_ratio, setup_ref;
  double win_wall = 0, win_cpu = 0, win_probe = 0;
  int failed = 0;
  for (int i = 0; i < n; ++i) {
    double p = 0;
    for (int k = 0; k < w.probes_per_slice; ++k) p += probe.Run();
    SliceStats st;
    if (w.make != nullptr) {
      st = RunSlice(MakeSlice(w, a, i), nullptr, -1);
    } else {
      const double cpu0 = ProcessCpuSeconds();
      st.simulate_s = probe.Run();
      st.cpu_s = ProcessCpuSeconds() - cpu0;
    }
    probe_s += p;
    wall += st.wall_s();
    setup_raw += st.setup_s;
    // Set-up seconds at the reference speed, where the probe takes its
    // development-host time.
    setup_ref.push_back(st.setup_s * probe.reference_seconds() *
                        w.probes_per_slice / p);
    tput += st.result.throughput;
    win_wall += st.wall_s();
    win_cpu += st.cpu_s;
    win_probe += p;
    if ((i + 1) % w.slice_multiple == 0) {
      run_ratio.push_back(win_wall / win_probe);
      cpu_ratio.push_back(win_cpu / win_probe);
      win_wall = win_cpu = win_probe = 0;
    }
    if (st.failed) {
      ++failed;
      ReportFailure(i, st);
    }
  }

  Metrics m;
  m.Add("run_ref", Median(run_ratio), "ratio");
  m.Add("cpu_ref", Median(cpu_ratio), "ratio");
  m.Add("setup_s", Median(setup_ref), "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("sim_tput", tput / n, "txn/sim_s");
  PrintInfo(w.name, a.seed, n, wall, probe_s, setup_raw, probe.checksum());
  PrintResult(failed == 0, n, failed, m);
  return 0;
}

// --- Traced run --------------------------------------------------------------

/// Sums over a set of slices.
struct Totals {
  int slices = 0;
  double setup = 0, thread_wall = 0;
  double commits = 0, events = 0, total_events = 0, aborts = 0;
  double msgs = 0, callbacks = 0, deesc = 0, lock_waits = 0, deadlocks = 0;
  double hits = 0, misses = 0, disk_ios = 0, requests = 0, blocked = 0;
  double objects = 0, trace_bytes = 0, trace_events = 0, rows = 0;
  double cpu_util = 0, disk_util = 0, net_util = 0;
  double setup_per_client = 0, setup_per_page = 0;

  void Add(const SliceStats& st) {
    const core::RunResult& r = st.result;
    const auto& c = r.counters;
    ++slices;
    setup += st.setup_s;
    thread_wall += st.wall_s() * st.threads;
    const double mc = static_cast<double>(r.measured_commits);
    commits += mc;
    events += static_cast<double>(r.events);
    total_events += st.total_events;
    aborts += static_cast<double>(c.aborts);
    msgs += static_cast<double>(c.msgs_total);
    callbacks += static_cast<double>(c.callbacks_sent);
    deesc += static_cast<double>(c.deescalations);
    lock_waits += static_cast<double>(c.lock_waits);
    deadlocks += static_cast<double>(c.deadlocks);
    hits += static_cast<double>(c.cache_hits);
    misses += static_cast<double>(c.cache_misses);
    disk_ios += static_cast<double>(c.disk_reads + c.disk_writes + c.log_writes);
    requests += static_cast<double>(c.read_requests + c.write_requests);
    blocked += static_cast<double>(c.callbacks_blocked);
    objects += mc * st.objects_per_txn;
    trace_bytes += static_cast<double>(st.trace_bytes);
    trace_events += static_cast<double>(st.trace_events);
    rows += static_cast<double>(st.telemetry_rows);
    cpu_util += r.server_cpu_util;
    disk_util += r.disk_util;
    net_util += r.network_util;
    setup_per_client += 1e9 * st.setup_s / st.clients;
    setup_per_page += 1e9 * st.setup_s / st.db_pages;
  }
  double PerCommit(double x) const { return commits > 0 ? x / commits : 0; }
  double PerSlice(double x) const { return slices > 0 ? x / slices : 0; }
  /// A measurement-window count scaled up to the slices' whole work (warmup
  /// included), in proportion to events.
  double Whole(double x) const {
    return events > 0 ? x * total_events / events : 0;
  }
};

/// Partitioned-kernel wall-clock figures summed over partitioned slices.
struct ShardTotals {
  int slices = 0;
  double windows = 0, stretched = 0, busy = 0, busy_max = 0, merge = 0;
  double serial = 0, scan = 0, skipped = 0, wait = 0, events = 0;

  void Add(const SliceStats& st) {
    const core::RunResult& r = st.result;
    if (r.shard_busy_seconds.empty()) return;
    ++slices;
    double b = 0, bmax = 0;
    for (double x : r.shard_busy_seconds) {
      b += x;
      bmax = std::max(bmax, x);
    }
    windows += static_cast<double>(r.shard_windows);
    stretched += static_cast<double>(r.shard_windows_stretched);
    busy += b;
    busy_max += bmax;
    merge += r.shard_merge_seconds;
    serial += r.shard_serial_seconds;
    scan += r.shard_scan_seconds;
    skipped += static_cast<double>(r.shard_scans_skipped);
    // Thread-seconds spent neither running partitions nor in the serial
    // phase: barrier waits and hand-off.
    wait += st.threads * st.simulate_s - b - r.shard_serial_seconds;
    events += static_cast<double>(r.events);
  }
  double PerSlice(double x) const { return slices > 0 ? x / slices : 0; }
};

bool SameModelResult(const SliceStats& x, const SliceStats& y) {
  return x.result.events == y.result.events &&
         x.result.measured_commits == y.result.measured_commits &&
         x.result.throughput == y.result.throughput;
}

int TracedRun(const Workload& w, const Args& a) {
  // Half a timed run's slices, in whole protocol cycles; spans are recorded
  // on alternate cycles so the span overhead itself is measured.
  const int n = SliceCount(w.slices_per_second / 2, 2 * w.slice_multiple,
                           a.seconds);
  SpanLog log(std::string(w.name) + "-" + std::to_string(a.seed));
  const int root = log.Begin("run", -1);
  Probe probe(w.large_probe);
  RunSlice(MakeSlice(w, a, 0), nullptr, -1);
  probe.Run();

  Totals all;
  // Shard figures of the timed slices (for the shares), and of every slice
  // that ran on several threads (the shard.* metrics).
  ShardTotals main_shards, threaded;
  double probe_on = 0, probe_off = 0, wall_on = 0, wall_off = 0;
  double observed_wall = 0, unobserved_wall = 0, par_wall = 0, seq_wall = 0;
  int failed = 0, attempted = 0;
  SliceStats first;
  for (int i = 0; i < n; ++i) {
    const SliceSpec spec = MakeSlice(w, a, i);
    const bool spans_on = (i / w.slice_multiple) % 2 == 0;
    SpanLog* lg = spans_on ? &log : nullptr;
    ScopedSpan slice(lg, "slice", root);
    double p = 0;
    {
      ScopedSpan ps(lg, "probe", slice.id());
      for (int k = 0; k < w.probes_per_slice; ++k) p += probe.Run();
    }
    SliceStats st = RunSlice(spec, lg, slice.id());
    ++attempted;
    if (st.failed) {
      ++failed;
      ReportFailure(i, st);
    }
    (spans_on ? probe_on : probe_off) += p;
    (spans_on ? wall_on : wall_off) += st.wall_s();
    all.Add(st);
    main_shards.Add(st);
    if (st.threads > 1) threaded.Add(st);

    // Observation cost: the same slice with every hook off.
    if (spec.observed) {
      SliceSpec bare = spec;
      bare.sys.trace = bare.sys.telemetry = bare.rc.record_history = false;
      bare.observed = false;
      ScopedSpan ts(lg, "twin.unobserved", slice.id());
      observed_wall += st.wall_s();
      unobserved_wall += RunSlice(bare, nullptr, -1).wall_s();
    }
    // Partitioned slices: the same slice on the other thread count (one, or
    // one per partition) must give the identical model result; the wall
    // ratio is the speedup.
    if (spec.sys.sim_shards > 0 && i < kShardTwins) {
      SliceSpec other = spec;
      other.sys.sim_shards = st.threads > 1 ? 1 : spec.sys.num_servers;
      ScopedSpan ts(lg, "twin.shards", slice.id());
      const SliceStats o = RunSlice(other, nullptr, -1);
      if (o.threads > 1) threaded.Add(o);
      ++attempted;
      if (o.failed || !SameModelResult(st, o)) {
        ++failed;
        std::fprintf(stderr, "slice %d: sim_shards %d and %d diverge\n", i,
                     spec.sys.sim_shards, other.sys.sim_shards);
      }
      (st.threads > 1 ? par_wall : seq_wall) += st.simulate_s;
      (st.threads > 1 ? seq_wall : par_wall) += o.simulate_s;
    }
    if (i == 0) first = std::move(st);
  }

  // Replays, sized from the first slice and the measured hit ratio.
  const SliceSpec spec0 = MakeSlice(w, a, 0);
  ReplaySizes sizes;
  sizes.live_processes = first.live_processes;
  sizes.client_buf_pages = first.client_buf_pages;
  sizes.cache_hit_ratio =
      all.hits + all.misses > 0 ? all.hits / (all.hits + all.misses) : 0;
  sizes.telemetry_tracks = first.telemetry_tracks;
  if (sizes.telemetry_tracks == 0) {
    SliceSpec t = spec0;
    t.sys.telemetry = true;
    core::System probe_system(t.protocol, t.sys, t.wl);
    sizes.telemetry_tracks = probe_system.telemetry()->num_tracks();
  }
  const ReplayCosts rc = RunReplays(spec0, sizes, &log, root);
  log.End(root);

  const double run_s = wall_on + wall_off;
  const double probe_s = probe_on + probe_off;
  const double base_ns = 1e9 * all.thread_wall;  // thread-ns the slices spent
  const auto share = [&](double ns) { return base_ns > 0 ? ns / base_ns : 0; };
  const double sh_sim = share(all.Whole(all.events) * rc.sim_ns_per_event);
  const double sh_cc = share(all.Whole(all.requests) * rc.lock_ns +
                             all.Whole(all.lock_waits + all.blocked) *
                                 rc.detector_ns);
  const double sh_storage = share(all.Whole(all.hits + all.misses) * rc.lru_ns);
  const double sh_workload = share(all.Whole(all.commits) * rc.txn_us * 1e3);
  const double sh_resources = share(
      all.Whole(2 * all.msgs + all.disk_ios + all.objects) * rc.cpu_ns);
  const double sh_trace = share(all.Whole(all.trace_events) * rc.emit_ns);
  const double sh_metrics = share(all.rows * rc.sample_us * 1e3);
  const double sh_shard =
      share(1e9 * (main_shards.merge + main_shards.serial + main_shards.wait));
  const ShardTotals& sh = threaded.slices > 0 ? threaded : main_shards;

  Metrics m;
  m.Add("sim.events_per_commit", all.PerCommit(all.events), "events");
  m.Add("sim.ns_per_event",
        all.total_events > 0 ? 1e9 * run_s / all.total_events : 0,
        "ns");
  m.Add("sim.replay_ns_per_event", rc.sim_ns_per_event, "ns");
  m.Add("core.msgs_per_commit", all.PerCommit(all.msgs), "msgs");
  m.Add("core.callbacks_per_commit", all.PerCommit(all.callbacks), "msgs");
  m.Add("core.deescalations_per_commit", all.PerCommit(all.deesc), "count");
  m.Add("core.aborts_per_commit", all.PerCommit(all.aborts), "count");
  m.Add("core.commit_ratio",
        all.commits > 0 ? all.commits / (all.commits + all.aborts) : 0,
        "ratio");
  m.Add("cc.lock_waits_per_commit", all.PerCommit(all.lock_waits), "count");
  m.Add("cc.deadlocks_per_commit", all.PerCommit(all.deadlocks), "count");
  m.Add("cc.lock_replay_ns", rc.lock_ns, "ns");
  m.Add("cc.detector_replay_ns", rc.detector_ns, "ns");
  m.Add("storage.cache_hit_ratio", sizes.cache_hit_ratio, "ratio");
  m.Add("storage.disk_ios_per_commit", all.PerCommit(all.disk_ios), "count");
  m.Add("storage.lru_replay_ns", rc.lru_ns, "ns");
  m.Add("workload.txn_replay_us", rc.txn_us, "us");
  m.Add("resources.cpu_replay_ns", rc.cpu_ns, "ns");
  m.Add("resources.server_cpu_util", all.PerSlice(all.cpu_util), "ratio");
  m.Add("resources.disk_util", all.PerSlice(all.disk_util), "ratio");
  m.Add("resources.network_util", all.PerSlice(all.net_util), "ratio");
  m.Add("shard.windows", sh.PerSlice(sh.windows), "count");
  m.Add("shard.windows_stretched", sh.PerSlice(sh.stretched), "count");
  m.Add("shard.events_per_window",
        sh.windows > 0 ? sh.events / sh.windows : 0, "events");
  m.Add("shard.busy_s", sh.PerSlice(sh.busy), "s");
  m.Add("shard.busy_max_s", sh.PerSlice(sh.busy_max), "s");
  m.Add("shard.merge_s", sh.PerSlice(sh.merge), "s");
  m.Add("shard.serial_s", sh.PerSlice(sh.serial), "s");
  m.Add("shard.scan_s", sh.PerSlice(sh.scan), "s");
  m.Add("shard.scans_skipped", sh.PerSlice(sh.skipped), "count");
  m.Add("shard.wait_s", sh.PerSlice(sh.wait), "s");
  m.Add("shard.speedup", par_wall > 0 ? seq_wall / par_wall : 0, "ratio");
  m.Add("setup.ns_per_client", all.PerSlice(all.setup_per_client), "ns");
  m.Add("setup.ns_per_page", all.PerSlice(all.setup_per_page), "ns");
  m.Add("trace.bytes_per_commit", all.PerCommit(all.trace_bytes), "bytes");
  m.Add("trace.emit_replay_ns", rc.emit_ns, "ns");
  m.Add("metrics.sample_replay_us", rc.sample_us, "us");
  m.Add("observe.overhead",
        unobserved_wall > 0 ? observed_wall / unobserved_wall : 1.0,
        "ratio");
  m.Add("bench.run_s", run_s, "s");
  m.Add("bench.probe_s", probe_s, "s");
  m.Add("bench.slices", n, "count");
  m.Add("share.sim", sh_sim, "ratio");
  m.Add("share.cc", sh_cc, "ratio");
  m.Add("share.storage", sh_storage, "ratio");
  m.Add("share.workload", sh_workload, "ratio");
  m.Add("share.resources", sh_resources, "ratio");
  m.Add("share.trace", sh_trace, "ratio");
  m.Add("share.metrics", sh_metrics, "ratio");
  m.Add("share.shard", sh_shard, "ratio");
  m.Add("share.unattributed",
        1 - (sh_sim + sh_cc + sh_storage + sh_workload + sh_resources +
             sh_trace + sh_metrics + sh_shard),
        "ratio");
  m.Add("bench.trace_overhead",
        probe_on > 0 && probe_off > 0 && wall_off > 0
            ? (wall_on / probe_on) / (wall_off / probe_off)
            : 0,
        "ratio");

  if (!a.spans.empty()) {
    std::ofstream out(a.spans, std::ios::binary);
    out << log.Jsonl();
    if (!out) {
      std::fprintf(stderr, "cannot write span log %s\n", a.spans.c_str());
      return 1;
    }
  }
  PrintInfo(w.name, a.seed, n, run_s, probe_s, all.setup, probe.checksum());
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans PATH] [--max-events N]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr || (w->make == nullptr && a.trace == 1)) {
    std::fprintf(stderr, "unknown workload %s for --trace %d\n",
                 a.workload.c_str(), a.trace);
    return 2;
  }
  return a.trace == 1 ? TracedRun(*w, a) : TimedRun(*w, a);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
