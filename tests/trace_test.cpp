// Tracing subsystem: determinism of the serialized sinks, zero-perturbation
// when enabled (tracing observes, never schedules), Chrome sink
// well-formedness, the sums-to-response decomposition invariant across all
// six protocols under contention, ring-buffer bounding, the per-System
// PSOODB_TRACE_PAGE regression, and the sinks' bytes against a printf
// reference for hand-built single and merged traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "config/params.h"
#include "core/system.h"
#include "sim/simulation.h"
#include "trace/trace.h"

namespace psoodb::core {
namespace {

using config::Locality;
using config::Protocol;
using config::SystemParams;

RunConfig Quick(int commits = 150) {
  RunConfig rc;
  rc.warmup_commits = 30;
  rc.measure_commits = commits;
  return rc;
}

/// High-contention setup: few pages, many writers.
SystemParams Contended() {
  SystemParams sys;
  sys.num_clients = 8;
  sys.db_pages = 120;
  sys.trace = true;
  return sys;
}

RunResult TracedRun(Protocol p, int commits = 150) {
  SystemParams sys = Contended();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.5);
  return RunSimulation(p, sys, w, Quick(commits));
}

TEST(TraceTest, BreakdownSumsToResponseOnAllProtocols) {
  for (Protocol p : config::AllProtocols()) {
    RunResult r = TracedRun(p);
    EXPECT_FALSE(r.stalled) << config::ProtocolName(p);
    EXPECT_EQ(r.breakdown_txns, r.measured_commits) << config::ProtocolName(p);
    EXPECT_EQ(r.breakdown_violations, 0u) << config::ProtocolName(p);
    // The decomposition is non-trivial: commits spent real time in at least
    // the network phase (every transaction talks to the server).
    EXPECT_GT(r.phase_seconds[static_cast<int>(trace::Phase::kNetwork)], 0.0)
        << config::ProtocolName(p);
  }
}

TEST(TraceTest, SerializedTracesAreDeterministic) {
  for (Protocol p : {Protocol::kPS, Protocol::kPSAA}) {
    RunResult a = TracedRun(p, 80);
    RunResult b = TracedRun(p, 80);
    ASSERT_FALSE(a.trace_jsonl.empty()) << config::ProtocolName(p);
    EXPECT_EQ(a.trace_jsonl, b.trace_jsonl) << config::ProtocolName(p);
    EXPECT_EQ(a.trace_chrome, b.trace_chrome) << config::ProtocolName(p);
  }
}

TEST(TraceTest, TracingDoesNotPerturbTheSimulation) {
  SystemParams sys = Contended();
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.5);
  sys.trace = false;
  RunResult off = RunSimulation(Protocol::kPSOA, sys, w, Quick());
  sys.trace = true;
  RunResult on = RunSimulation(Protocol::kPSOA, sys, w, Quick());
  // Bit-identical simulation: tracing adds no events and no sim-time costs.
  EXPECT_EQ(off.throughput, on.throughput);
  EXPECT_EQ(off.sim_seconds, on.sim_seconds);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.measured_commits, on.measured_commits);
  EXPECT_EQ(off.counters.msgs_total, on.counters.msgs_total);
  EXPECT_EQ(off.counters.aborts, on.counters.aborts);
  // And the sinks only exist when tracing is on.
  EXPECT_TRUE(off.trace_jsonl.empty());
  EXPECT_FALSE(on.trace_jsonl.empty());
  EXPECT_EQ(off.breakdown_txns, 0u);
}

TEST(TraceTest, ChromeTraceIsWellFormedAndMonotonePerTrack) {
  RunResult r = TracedRun(Protocol::kPSOO, 100);
  const std::string& s = r.trace_chrome;
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(s.substr(s.size() - 4), "\n]}\n");
  // Braces and brackets balance (no truncated records).
  long braces = 0, brackets = 0;
  for (char c : s) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // ts monotone per tid over the "ph":"X"/"i" records (the serializer sorts
  // by (t, seq)); metadata records carry no "ts".
  std::map<int, double> last_ts;
  std::size_t pos = 0, records = 0;
  while ((pos = s.find("\"tid\":", pos)) != std::string::npos) {
    pos += 6;
    const int tid = std::atoi(s.c_str() + pos);
    const std::size_t ts_pos = s.find("\"ts\":", pos);
    const std::size_t rec_end = s.find('\n', pos);
    if (ts_pos == std::string::npos || ts_pos > rec_end) continue;
    const double ts = std::atof(s.c_str() + ts_pos + 5);
    auto [it, inserted] = last_ts.try_emplace(tid, ts);
    if (!inserted) {
      EXPECT_LE(it->second, ts) << "tid " << tid;
      it->second = ts;
    }
    ++records;
  }
  EXPECT_GT(records, 10u);
}

TEST(TraceTest, RingBufferIsBounded) {
  SystemParams sys = Contended();
  sys.trace_buffer_events = 64;
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.5);
  RunResult r = RunSimulation(Protocol::kPS, sys, w, Quick());
  EXPECT_GT(r.trace_events_dropped, 0u);
  // JSONL line count: meta + events + summary, with events capped at 64.
  std::size_t lines = 0;
  for (char c : r.trace_jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 64u + 2u);
}

TEST(TraceTest, TracePageIsPerSystemNotProcessCached) {
  // Regression: PSOODB_TRACE_PAGE was once latched in a function-local
  // static, so the first System constructed in a process decided the
  // traced page for every later one. The env var must land in each System's
  // own params copy at construction time.
  ASSERT_EQ(setenv("PSOODB_TRACE_PAGE", "5", 1), 0);
  SystemParams sys;
  sys.num_clients = 2;
  sys.db_pages = 200;
  auto w = config::MakeUniform(sys, Locality::kHigh, 0.2);
  System a(Protocol::kPS, sys, w);
  ASSERT_EQ(setenv("PSOODB_TRACE_PAGE", "7", 1), 0);
  System b(Protocol::kPS, sys, w);
  ASSERT_EQ(unsetenv("PSOODB_TRACE_PAGE"), 0);
  System c(Protocol::kPS, sys, w);
  EXPECT_EQ(a.params().trace_page, 5);
  EXPECT_EQ(b.params().trace_page, 7);
  EXPECT_EQ(c.params().trace_page, -1);
}

TEST(TraceTest, JsonlSummaryMatchesResultTotals) {
  RunResult r = TracedRun(Protocol::kOS, 100);
  const std::string& s = r.trace_jsonl;
  ASSERT_FALSE(s.empty());
  // Meta line first, summary line last.
  EXPECT_EQ(s.rfind("{\"psoodb_trace\":1", 0), 0u);
  const std::size_t sum_pos = s.find("{\"summary\":1");
  ASSERT_NE(sum_pos, std::string::npos);
  char expect[64];
  std::snprintf(expect, sizeof(expect), "\"commits\":%llu",
                static_cast<unsigned long long>(r.breakdown_txns));
  EXPECT_NE(s.find(expect, sum_pos), std::string::npos);
  EXPECT_NE(s.find("\"violations\":0", sum_pos), std::string::npos);
}

// --- sink bytes against a printf reference ---------------------------------

using trace::Event;
using trace::EventKind;
using trace::Tracer;
using trace::TraceMeta;

void Appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  ASSERT_TRUE(n >= 0 && n < static_cast<int>(sizeof buf));
  out.append(buf, static_cast<std::size_t>(n));
}

using ull = unsigned long long;
using ll = long long;

/// The aggregates a JSONL summary line reports.
struct Totals {
  ull dropped = 0;
  int page_filter = -1;
  ull commits = 0;
  ull violations = 0;
  double phases[trace::kNumPhases] = {};

  void Add(const Tracer& t) {
    dropped += t.events_dropped();
    commits += t.commits();
    violations += t.violations();
    for (int p = 0; p < trace::kNumPhases; ++p) {
      phases[p] += t.phase_totals()[p];
    }
  }
};

/// The JSONL sink as a printf formatter renders `events` in order.
std::string ReferenceJsonl(const TraceMeta& meta,
                           const std::vector<Event>& events,
                           const Totals& totals) {
  std::string out;
  Appendf(out,
          "{\"psoodb_trace\":1,\"protocol\":\"%s\",\"clients\":%d,"
          "\"servers\":%d,\"seed\":%llu,\"events\":%zu,\"dropped\":%llu,"
          "\"page_filter\":%d}\n",
          meta.protocol.c_str(), meta.num_clients, meta.num_servers,
          static_cast<ull>(meta.seed), events.size(), totals.dropped,
          totals.page_filter);
  for (const Event& e : events) {
    Appendf(out,
            "{\"t\":%.9f,\"k\":\"%s\",\"node\":%d,\"txn\":%llu,\"page\":%d,"
            "\"a\":%lld,\"b\":%lld,\"aux\":%d,\"dur\":%.9f,\"seq\":%llu}\n",
            e.t, trace::EventKindName(e.kind), e.node,
            static_cast<ull>(e.txn), e.page, static_cast<ll>(e.a),
            static_cast<ll>(e.b), e.aux, e.dur, static_cast<ull>(e.seq));
  }
  Appendf(out, "{\"summary\":1,\"commits\":%llu,\"violations\":%llu,"
               "\"phases\":{",
          totals.commits, totals.violations);
  for (int p = 0; p < trace::kNumPhases; ++p) {
    Appendf(out, "%s\"%s\":%.9f", p == 0 ? "" : ",", trace::PhaseName(p),
            totals.phases[p]);
  }
  out += "}}\n";
  return out;
}

/// The Chrome sink as a printf formatter renders `events` (already in
/// time order), with tracks named once each in tid order.
std::string ReferenceChrome(const TraceMeta& meta,
                            const std::vector<Event>& events) {
  static constexpr const char* kCategory[trace::kNumEventKinds] = {
      "txn",  "txn",  "txn",  "txn",  "msg",  "msg",
      "lock", "lock", "lock", "lock", "lock", "cb",
      "cb",   "cb",   "disk", "disk", "local", "local"};
  const int first_server = std::max(1000, meta.num_clients) + 1;
  const auto tid_of = [first_server](int node) {
    return node >= 0 ? node + 1 : first_server - 1 - node;
  };
  std::map<int, std::string> tracks;
  for (const Event& e : events) {
    char name[32];
    std::snprintf(name, sizeof name, e.node >= 0 ? "client %d" : "server %d",
                  e.node >= 0 ? e.node : -1 - e.node);
    tracks.try_emplace(tid_of(e.node), name);
  }
  std::string out;
  Appendf(out,
          "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"protocol\":\"%s\","
          "\"seed\":%llu},\"traceEvents\":[\n",
          meta.protocol.c_str(), static_cast<ull>(meta.seed));
  Appendf(out,
          "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"psoodb %s\"}}",
          meta.protocol.c_str());
  for (const auto& [tid, name] : tracks) {
    Appendf(out,
            ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"%s\"}}",
            tid, name.c_str());
  }
  for (const Event& e : events) {
    if (e.dur > 0) {
      Appendf(out, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f",
              tid_of(e.node), e.t * 1e6, e.dur * 1e6);
    } else {
      Appendf(out, ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"s\":\"t\"",
              tid_of(e.node), e.t * 1e6);
    }
    Appendf(out,
            ",\"name\":\"%s\",\"cat\":\"%s\",\"args\":{\"txn\":%llu,"
            "\"page\":%d,\"a\":%lld,\"b\":%lld,\"aux\":%d,\"seq\":%llu}}",
            trace::EventKindName(e.kind),
            kCategory[static_cast<int>(e.kind)], static_cast<ull>(e.txn),
            e.page, static_cast<ll>(e.a), static_cast<ll>(e.b), e.aux,
            static_cast<ull>(e.seq));
  }
  out += "\n]}\n";
  return out;
}

/// A tracer's retained events in emission order.
std::vector<Event> Retained(const Tracer& t) {
  std::vector<Event> events;
  for (const auto half : t.Events()) {
    events.insert(events.end(), half.begin(), half.end());
  }
  return events;
}

/// Emits a hand-built mix into `t`: instants, spans emitted after later
/// instants (so emission order is not time order), equal timestamps,
/// client and server nodes, and two commits with their phase totals.
void EmitMix(Tracer& t, double base, std::uint64_t txn) {
  t.EmitSpan(base + 0.001, 0, EventKind::kTxnBegin, 0, txn);
  t.EmitSpan(base + 0.002, 0, EventKind::kMsgSend, 0, txn, -1, 4096, 3, -1);
  t.EmitSpan(base + 0.002, 0, EventKind::kMsgRecv, -1, txn, -1, 4096, 3, 0);
  t.EmitSpan(base + 0.0035, 0, EventKind::kLockWait, -1, txn, 17, 170,
             static_cast<std::int64_t>(txn) + 1);
  t.EmitSpan(base + 0.0015, 0.0031234567891, EventKind::kDiskRead, -2, txn,
             17, 4);
  t.EmitSpan(base + 0.002, 0.0025, EventKind::kLockGrant, -1, txn, 17, 170,
             -1);
  t.EmitSpan(base + 0.004, 0, EventKind::kCallbackIssue, -1, txn, 17, -1, -1,
             2);
  t.EmitSpan(base + 0.0038, 0.000000123456, EventKind::kCallbackRound, -1,
             txn, 17, 1);
  t.EmitSpan(base + 0.004, 0, EventKind::kLocalRevoke, 2, txn + 1, 17, 170);
  trace::Breakdown cycle;
  cycle.Add(trace::Phase::kThink, 0.0123456789);
  cycle.Add(trace::Phase::kNetwork, 0.0021);
  cycle.Add(trace::Phase::kDisk, 0.0031234567891);
  t.FinalizeCommit(0, txn, base + 0.001, 0.0052234567891, cycle);
  t.EmitSpan(base + 0.005, 0, EventKind::kTxnBegin, 3, txn + 1);
  cycle.Clear();
  cycle.Add(trace::Phase::kBackoff, 0.25);
  t.FinalizeCommit(3, txn + 1, base + 0.0045, 0.25, cycle);
  t.EmitSpan(base + 0.0045, 0.000001, EventKind::kDiskWrite, -1, txn + 1, 9,
             2);
}

TraceMeta SinkMeta() {
  TraceMeta meta;
  meta.protocol = "PS-AA";
  meta.num_clients = 4;
  meta.num_servers = 2;
  meta.seed = 424242;
  return meta;
}

TEST(TraceSinkTest, SingleTracerSinksMatchPrintfReference) {
  sim::Simulation sim;
  Tracer t(sim, 8, -1);  // wraps: 13 events into 8 slots
  EmitMix(t, 12.3456789, 600);
  ASSERT_FALSE(t.Events()[0].empty());
  ASSERT_FALSE(t.Events()[1].empty());
  ASSERT_EQ(t.events_dropped(), 5u);
  const TraceMeta meta = SinkMeta();
  std::vector<Event> events = Retained(t);
  Totals totals;
  totals.Add(t);
  EXPECT_EQ(t.SerializeJsonl(meta), ReferenceJsonl(meta, events, totals));
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) {
                     if (x.t != y.t) return x.t < y.t;
                     return x.seq < y.seq;
                   });
  EXPECT_EQ(t.SerializeChrome(meta), ReferenceChrome(meta, events));
  // The one-tracer merged sinks are the tracer's own.
  const trace::MergedEvents merged({&t});
  EXPECT_EQ(Tracer::SerializeJsonlMerged(merged, meta), t.SerializeJsonl(meta));
  const std::string counters =
      "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"name\":\"x\","
      "\"args\":{\"v\":1}}";
  EXPECT_EQ(Tracer::SerializeChromeMerged(merged, meta, &counters),
            t.SerializeChrome(meta, &counters));
}

TEST(TraceSinkTest, MergedSinksMatchPrintfReference) {
  sim::Simulation sim;
  Tracer a(sim, 8, -1);
  Tracer b(sim, 64, -1);
  EmitMix(a, 12.3456789, 600);
  // Same base time: equal timestamps across the two rings.
  EmitMix(b, 12.3456789, 601);
  EmitMix(b, 12.3426789, 901);
  const TraceMeta meta = SinkMeta();
  struct Tagged {
    Event e;
    int part;
  };
  std::vector<Tagged> all;
  Totals totals;
  int part = 0;
  for (const Tracer* t : {&a, &b}) {
    for (const Event& e : Retained(*t)) all.push_back(Tagged{e, part});
    totals.Add(*t);
    ++part;
  }
  std::sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    if (x.e.t != y.e.t) return x.e.t < y.e.t;
    if (x.part != y.part) return x.part < y.part;
    return x.e.seq < y.e.seq;
  });
  std::vector<Event> events;
  for (const Tagged& x : all) {
    events.push_back(x.e);
    events.back().seq = events.size() - 1;
  }
  const trace::MergedEvents merged({&a, &b});
  EXPECT_EQ(Tracer::SerializeJsonlMerged(merged, meta),
            ReferenceJsonl(meta, events, totals));
  EXPECT_EQ(Tracer::SerializeChromeMerged(merged, meta),
            ReferenceChrome(meta, events));
}

TEST(TraceSinkTest, ServerTracksFollowMoreThanAThousandClients) {
  // Client 1000 is tid 1001, which was also server 0's track.
  sim::Simulation sim;
  Tracer t(sim, 16, -1);
  t.Emit(EventKind::kTxnBegin, 1000, 1);
  t.Emit(EventKind::kDiskRead, -1, 1);
  TraceMeta meta;
  meta.protocol = "PS";
  meta.num_clients = 2000;
  meta.num_servers = 1;
  const std::string s = t.SerializeChrome(meta);
  EXPECT_NE(s.find("{\"ph\":\"M\",\"pid\":1,\"tid\":1001,\"name\":"
                   "\"thread_name\",\"args\":{\"name\":\"client 1000\"}}"),
            std::string::npos);
  EXPECT_NE(s.find("{\"ph\":\"M\",\"pid\":1,\"tid\":2001,\"name\":"
                   "\"thread_name\",\"args\":{\"name\":\"server 0\"}}"),
            std::string::npos);
  EXPECT_NE(s.find("{\"ph\":\"i\",\"pid\":1,\"tid\":2001,\"ts\":0.000,"
                   "\"s\":\"t\",\"name\":\"disk_read\""),
            std::string::npos);
  EXPECT_EQ(s, ReferenceChrome(meta, Retained(t)));
}

}  // namespace
}  // namespace psoodb::core
