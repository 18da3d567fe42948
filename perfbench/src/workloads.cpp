#include "workloads.h"

#include <time.h>

#include <chrono>
#include <memory>

#include "spans.h"

namespace perfbench {
namespace {

using config::Protocol;

// Figure 8 / Figure 10 columns cycle through the paper's five designs.
constexpr Protocol kCycle[] = {Protocol::kPS, Protocol::kOS, Protocol::kPSOO,
                               Protocol::kPSOA, Protocol::kPSAA};
constexpr int kCycleLen = 5;

SliceSpec Hicon(int index, std::uint64_t seed) {
  SliceSpec s;
  s.protocol = kCycle[index % kCycleLen];
  s.sys.seed = seed;
  s.wl = config::MakeHicon(s.sys, config::Locality::kLow, 0.20);
  s.rc.warmup_commits = 20;
  s.rc.measure_commits = 80;
  return s;
}

// Observed slices measure half as many commits as hicon_contended's: the
// hooks make each commit several times dearer, and shorter slices keep a
// run's window count up.
SliceSpec HiconObserved(int index, std::uint64_t seed) {
  SliceSpec s = Hicon(index, seed);
  s.rc.measure_commits = 40;
  s.sys.trace = true;
  s.sys.telemetry = true;
  s.rc.record_history = true;
  s.observed = true;
  return s;
}

SliceSpec PrivateCached(int index, std::uint64_t seed) {
  SliceSpec s;
  s.protocol = kCycle[index % kCycleLen];
  s.sys.seed = seed;
  s.wl = config::MakePrivate(s.sys, 0.20);
  s.rc.warmup_commits = 30;
  s.rc.measure_commits = 200;
  return s;
}

// Paper-scaled HOTCOLD (Figures 12-14 methodology): 2000 clients over 4
// servers x 8 disks, 1250 pages per 25 clients, 1 ms inter-partition link.
// Four server partitions run on one thread (sim_shards = 1): the same
// partitioned code path (windows, outbox merge, cross-partition deadlock
// coordinator) without thread hand-off, whose wall time is too unsteady on a
// shared host to gate on. The traced run times the 4-thread twin.
SliceSpec ScaledPartitioned(int /*index*/, std::uint64_t seed) {
  SliceSpec s;
  s.protocol = Protocol::kPSAA;
  s.sys.seed = seed;
  s.sys.num_clients = 2000;
  s.sys.num_servers = 4;
  s.sys.server_disks = 8;
  s.sys.db_pages = 100'000;
  s.sys.cross_partition_latency = 1e-3;
  s.sys.sim_shards = 1;
  s.wl = config::MakeHotCold(s.sys, config::Locality::kHigh, 0.20);
  s.rc.warmup_commits = 20;
  s.rc.measure_commits = 80;
  return s;
}

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t CountLines(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) n += c == '\n';
  return n;
}

}  // namespace

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"hicon_contended", 7.0, kCycleLen, 1, false, Hicon},
      {"private_cached", 8.0, kCycleLen, 1, false, PrivateCached},
      {"scaled_partitioned", 1.5, 1, 8, true, ScaledPartitioned},
      {"hicon_observed", 5.0, kCycleLen, 2, false, HiconObserved},
      {"probe_null", 12.0, kCycleLen, 1, false, nullptr},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

SliceStats RunSlice(const SliceSpec& spec, SpanLog* log, int parent) {
  SliceStats st;
  st.clients = spec.sys.num_clients;
  st.db_pages = spec.sys.db_pages;
  st.client_buf_pages = spec.sys.client_buf_pages();
  st.threads = spec.sys.sim_shards > 0
                   ? std::min(spec.sys.sim_shards, spec.sys.num_servers)
                   : 1;
  st.objects_per_txn = spec.wl.trans_size_pages * spec.wl.AvgLocality();

  const double cpu0 = ProcessCpuSeconds();
  auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<core::System> system;
  {
    ScopedSpan span(log, "setup", parent);
    system = std::make_unique<core::System>(spec.protocol, spec.sys, spec.wl);
  }
  st.setup_s = Since(t0);

  t0 = std::chrono::steady_clock::now();
  {
    ScopedSpan span(log, "simulate", parent);
    st.result = system->Run(spec.rc);
  }
  st.simulate_s = Since(t0);
  st.live_processes = system->simulation().live_processes();
  st.total_events =
      static_cast<double>(system->simulation().events_processed()) *
      (system->partitioned() ? system->num_servers() : 1);
  if (system->telemetry() != nullptr) {
    st.telemetry_tracks = system->telemetry()->num_tracks();
  }

  t0 = std::chrono::steady_clock::now();
  {
    ScopedSpan span(log, "teardown", parent);
    system.reset();
  }
  st.teardown_s = Since(t0);
  st.cpu_s = ProcessCpuSeconds() - cpu0;

  core::RunResult& r = st.result;
  st.trace_bytes = r.trace_jsonl.size();
  // JSONL sinks carry one meta line and one summary line around the rows.
  if (!r.trace_jsonl.empty()) st.trace_events = CountLines(r.trace_jsonl) - 2;
  if (!r.telemetry_jsonl.empty()) {
    st.telemetry_rows = CountLines(r.telemetry_jsonl) - 2;
  }
  r.trace_jsonl = std::string();
  r.trace_chrome = std::string();
  r.telemetry_jsonl = std::string();

  const auto fail = [&st](const char* why) {
    if (!st.failed) st.why = why;
    st.failed = true;
  };
  if (r.stalled) fail("stalled");
  if (r.measured_commits <
      static_cast<std::uint64_t>(spec.rc.measure_commits)) {
    fail("commit shortfall");
  }
  if (r.counters.validity_violations > 0) fail("validity violation");
  if (spec.observed) {
    if (!r.serializable) fail("not serializable");
    if (!r.no_lost_updates) fail("lost update");
    if (r.breakdown_violations > 0) fail("breakdown violation");
    if (r.trace_events_dropped > 0) fail("trace events dropped");
  }
  return st;
}

}  // namespace perfbench
