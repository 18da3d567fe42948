#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/text_writer.h"

namespace psoodb::trace {

namespace {

constexpr const char* kPhaseNames[kNumPhases] = {
    "think",     "backoff",       "client_cpu", "network",
    "lock_wait", "callback_wait", "server_cpu", "disk",
};

constexpr const char* kEventKindNames[kNumEventKinds] = {
    "txn_begin",    "txn",         "txn_abort",   "txn_restart",
    "msg_send",     "msg_recv",    "lock_wait",   "lock_grant",
    "lock_abort",   "lock_release", "deescalate", "cb_issue",
    "cb_round",     "token_recall", "disk_read",  "disk_write",
    "local_grant",  "local_revoke",
};

constexpr const char* kEventCategories[kNumEventKinds] = {
    "txn",  "txn",  "txn",  "txn",  "msg",  "msg",
    "lock", "lock", "lock", "lock", "lock", "cb",
    "cb",   "cb",   "disk", "disk", "local", "local",
};

/// Chrome track id for a node: clients (>= 0) map to 1..N, servers
/// (NodeId < 0, server i == -1 - i) map to 1001..1000+M.
int TidOf(int node) { return node >= 0 ? node + 1 : 1000 - node; }

using util::Append;
using util::Fixed;

}  // namespace

const char* PhaseName(int phase) {
  return (phase >= 0 && phase < kNumPhases) ? kPhaseNames[phase] : "?";
}

const char* EventKindName(EventKind kind) {
  const int i = static_cast<int>(kind);
  return (i >= 0 && i < kNumEventKinds) ? kEventKindNames[i] : "?";
}

void Tracer::EmitSpan(double t0, double dur, EventKind kind, int node,
                      std::uint64_t txn, std::int32_t page, std::int64_t a,
                      std::int64_t b, int aux) {
  if (page_filter_ >= 0 && page != page_filter_) return;
  Event e;
  e.t = t0;
  e.dur = dur;
  e.seq = seq_++;
  e.txn = txn;
  e.a = a;
  e.b = b;
  e.page = page;
  e.node = static_cast<std::int16_t>(node);
  e.aux = static_cast<std::int16_t>(aux);
  e.kind = kind;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[ring_next_] = e;
    ring_next_ = (ring_next_ + 1) % capacity_;
    ++dropped_;
  }
}

void Tracer::Attribute(std::uint64_t txn, Phase p, double dt) {
  if (partitions_ > 1) {
    // Striding txn ids make `txn % partitions` the home partition. A remote
    // server attributing to a visiting transaction buffers the delta; the
    // serial phase moves it to the home tracer before the client can read
    // it (the attribution completes before the reply send in the same
    // window, the buffer drains at that window's barrier, and the reply
    // arrives no earlier than the next window).
    const int home = static_cast<int>(txn % static_cast<std::uint64_t>(
                                                partitions_));
    if (home != partition_) {
      pending_remote_[static_cast<std::size_t>(home)].push_back(
          RemoteAttribution{txn, p, dt});
      return;
    }
  }
  txn_phases_[txn].Add(p, dt);
}

void Tracer::DrainRemoteAttributions(int home, Tracer& dest) {
  auto& pending = pending_remote_[static_cast<std::size_t>(home)];
  for (const RemoteAttribution& r : pending) {
    dest.txn_phases_[r.txn].Add(r.phase, r.dt);
  }
  pending.clear();
}

double Tracer::ServerAttributed(std::uint64_t txn) const {
  const auto it = txn_phases_.find(txn);
  if (it == txn_phases_.end()) return 0.0;
  const Breakdown& b = it->second;
  return b.phase[static_cast<int>(Phase::kLockWait)] +
         b.phase[static_cast<int>(Phase::kCallbackWait)] +
         b.phase[static_cast<int>(Phase::kServerCpu)] +
         b.phase[static_cast<int>(Phase::kDisk)];
}

Breakdown Tracer::TakePhases(std::uint64_t txn) {
  const auto it = txn_phases_.find(txn);
  if (it == txn_phases_.end()) return Breakdown{};
  Breakdown b = it->second;
  txn_phases_.erase(it);
  return b;
}

void Tracer::FinalizeCommit(int client, std::uint64_t txn, double start,
                            double response, Breakdown cycle) {
  cycle.Fold(TakePhases(txn));
  // Invariant: every phase except think (which precedes the response window)
  // sums to the response time. Client-side awaits are all timed directly and
  // per-RPC network time is the window residual, so a gap here means an
  // un-instrumented client-side suspension point.
  double sum = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    if (p != static_cast<int>(Phase::kThink)) sum += cycle.phase[p];
  }
  const double tolerance = 1e-9 * std::max(1.0, std::abs(response));
  if (std::abs(sum - response) > tolerance) ++violations_;
  for (int p = 0; p < kNumPhases; ++p) phase_totals_[p] += cycle.phase[p];
  ++commits_;
  EmitSpan(start, response, EventKind::kTxnCommit, client, txn);
}

void Tracer::ResetMeasurement() {
  ring_.clear();
  ring_next_ = 0;
  seq_ = 0;
  dropped_ = 0;
  for (double& total : phase_totals_) total = 0;
  commits_ = 0;
  violations_ = 0;
}

std::array<std::span<const Event>, 2> Tracer::Events() const {
  // ring_next_ stays 0 until the ring wraps, so this covers both cases.
  const std::span<const Event> ring(ring_);
  return {ring.subspan(ring_next_), ring.first(ring_next_)};
}

namespace {

/// Everything the sinks render, decoupled from Tracer members so the
/// single-tracer and merged-partition paths share one formatter. `events`
/// are rendered in order, the second span after the first.
struct SinkData {
  std::array<std::span<const Event>, 2> events;
  std::uint64_t dropped = 0;
  std::int32_t page_filter = -1;
  std::uint64_t commits = 0;
  std::uint64_t violations = 0;
  double phase_totals[kNumPhases] = {};
};

std::string RenderJsonl(const TraceMeta& meta, const SinkData& d) {
  const std::size_t num_events = d.events[0].size() + d.events[1].size();
  std::string out;
  out.reserve(num_events * 128 + 512);  // a line is ~115 bytes
  Append(out, "{\"psoodb_trace\":1,\"protocol\":\"", meta.protocol,
         "\",\"clients\":", meta.num_clients, ",\"servers\":", meta.num_servers,
         ",\"seed\":", meta.seed, ",\"events\":", num_events,
         ",\"dropped\":", d.dropped, ",\"page_filter\":", d.page_filter,
         "}\n");
  for (const std::span<const Event> half : d.events) {
    for (const Event& e : half) {
      Append(out, "{\"t\":", Fixed{e.t, 9}, ",\"k\":\"", EventKindName(e.kind),
             "\",\"node\":", e.node, ",\"txn\":", e.txn, ",\"page\":", e.page,
             ",\"a\":", e.a, ",\"b\":", e.b, ",\"aux\":", e.aux,
             ",\"dur\":", Fixed{e.dur, 9}, ",\"seq\":", e.seq, "}\n");
    }
  }
  Append(out, "{\"summary\":1,\"commits\":", d.commits,
         ",\"violations\":", d.violations, ",\"phases\":{");
  for (int p = 0; p < kNumPhases; ++p) {
    Append(out, p == 0 ? "\"" : ",\"", PhaseName(p), "\":",
           Fixed{d.phase_totals[p], 9});
  }
  out += "}}\n";
  return out;
}

}  // namespace

std::string Tracer::SerializeJsonl(const TraceMeta& meta) const {
  SinkData d;
  d.events = Events();
  d.dropped = dropped_;
  d.page_filter = page_filter_;
  d.commits = commits_;
  d.violations = violations_;
  for (int p = 0; p < kNumPhases; ++p) d.phase_totals[p] = phase_totals_[p];
  return RenderJsonl(meta, d);
}

namespace {

/// `events` must already be sorted by (t, seq). `extra_events` (optional) is
/// a pre-rendered ",\n"-separated fragment appended inside the traceEvents
/// array — telemetry counter tracks, already time-ordered per track.
std::string RenderChrome(const TraceMeta& meta,
                         std::span<const Event> events,
                         const std::string* extra_events = nullptr) {
  // Name each track once; std::map keeps the metadata block ordered by tid.
  std::map<int, std::string> tracks;
  for (const Event& e : events) {
    const int node = e.node;
    auto [it, inserted] = tracks.try_emplace(TidOf(node));
    if (inserted) {
      if (node >= 0) {
        Append(it->second, "client ", node);
      } else {
        Append(it->second, "server ", -1 - node);
      }
    }
  }
  std::string out;
  // An event is ~155-165 bytes.
  out.reserve(events.size() * 176 +
              (extra_events != nullptr ? extra_events->size() : 0) + 1024);
  Append(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"protocol\":\"",
         meta.protocol, "\",\"seed\":", meta.seed, "},\"traceEvents\":[\n");
  Append(out,
         "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"psoodb ",
         meta.protocol, "\"}}");
  for (const auto& [tid, name] : tracks) {
    Append(out, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":", tid,
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"", name, "\"}}");
  }
  for (const Event& e : events) {
    const Fixed ts{e.t * 1e6, 3};
    if (e.dur > 0) {
      Append(out, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":", TidOf(e.node),
             ",\"ts\":", ts, ",\"dur\":", Fixed{e.dur * 1e6, 3});
    } else {
      Append(out, ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":", TidOf(e.node),
             ",\"ts\":", ts, ",\"s\":\"t\"");
    }
    Append(out, ",\"name\":\"", EventKindName(e.kind), "\",\"cat\":\"",
           kEventCategories[static_cast<int>(e.kind)],
           "\",\"args\":{\"txn\":", e.txn, ",\"page\":", e.page,
           ",\"a\":", e.a, ",\"b\":", e.b, ",\"aux\":", e.aux,
           ",\"seq\":", e.seq, "}}");
  }
  if (extra_events != nullptr && !extra_events->empty()) {
    Append(out, ",\n", *extra_events);
  }
  out += "\n]}\n";
  return out;
}

/// Merges per-partition rings into one event list sorted by (t, partition,
/// per-partition seq) and renumbers seq in merged order. The partition
/// index breaks same-timestamp ties between rings, so the result is a pure
/// function of the per-partition traces (thread-count independent).
std::vector<Event> MergePartitionEvents(const std::vector<Tracer*>& parts) {
  struct Tagged {
    Event e;
    int part;
  };
  std::vector<Tagged> all;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const std::span<const Event> half : parts[p]->Events()) {
      for (const Event& e : half) {
        all.push_back(Tagged{e, static_cast<int>(p)});
      }
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    if (x.e.t != y.e.t) return x.e.t < y.e.t;
    if (x.part != y.part) return x.part < y.part;
    return x.e.seq < y.e.seq;
  });
  std::vector<Event> out;
  out.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    out.push_back(all[i].e);
    out.back().seq = i;
  }
  return out;
}

}  // namespace

std::string Tracer::SerializeChrome(const TraceMeta& meta,
                                    const std::string* extra_events) const {
  const auto [older, newer] = Events();
  std::vector<Event> events(older.begin(), older.end());
  events.insert(events.end(), newer.begin(), newer.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) {
                     if (x.t != y.t) return x.t < y.t;
                     return x.seq < y.seq;
                   });
  return RenderChrome(meta, events, extra_events);
}

std::string Tracer::SerializeJsonlMerged(const std::vector<Tracer*>& parts,
                                         const TraceMeta& meta) {
  if (parts.size() == 1) return parts.front()->SerializeJsonl(meta);
  const std::vector<Event> events = MergePartitionEvents(parts);
  SinkData d;
  d.events[0] = events;
  d.page_filter = parts.empty() ? -1 : parts.front()->page_filter_;
  // Summed in partition order (fixed order: the phase totals are
  // floating-point sums).
  for (const Tracer* t : parts) {
    d.dropped += t->dropped_;
    d.commits += t->commits_;
    d.violations += t->violations_;
    for (int p = 0; p < kNumPhases; ++p) {
      d.phase_totals[p] += t->phase_totals_[p];
    }
  }
  return RenderJsonl(meta, d);
}

std::string Tracer::SerializeChromeMerged(const std::vector<Tracer*>& parts,
                                          const TraceMeta& meta,
                                          const std::string* extra_events) {
  if (parts.size() == 1) {
    return parts.front()->SerializeChrome(meta, extra_events);
  }
  return RenderChrome(meta, MergePartitionEvents(parts), extra_events);
}

}  // namespace psoodb::trace
