#include "trace/trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string_view>

#include "util/check.h"
#include "util/text_writer.h"

namespace psoodb::trace {

namespace {

constexpr std::string_view kPhaseNames[kNumPhases] = {
    "think",     "backoff",       "client_cpu", "network",
    "lock_wait", "callback_wait", "server_cpu", "disk",
};

constexpr std::string_view kEventKindNames[kNumEventKinds] = {
    "txn_begin",    "txn",         "txn_abort",   "txn_restart",
    "msg_send",     "msg_recv",    "lock_wait",   "lock_grant",
    "lock_abort",   "lock_release", "deescalate", "cb_issue",
    "cb_round",     "token_recall", "disk_read",  "disk_write",
    "local_grant",  "local_revoke",
};

constexpr std::string_view kEventCategories[kNumEventKinds] = {
    "txn",  "txn",  "txn",  "txn",  "msg",  "msg",
    "lock", "lock", "lock", "lock", "lock", "cb",
    "cb",   "cb",   "disk", "disk", "local", "local",
};

std::string_view KindName(EventKind kind) {
  const int i = static_cast<int>(kind);
  return i < kNumEventKinds ? kEventKindNames[i] : "?";
}

using util::Append;
using util::Fixed;

}  // namespace

// The names are string literals, so each view's data() is NUL-terminated.
const char* PhaseName(int phase) {
  return (phase >= 0 && phase < kNumPhases) ? kPhaseNames[phase].data() : "?";
}

const char* EventKindName(EventKind kind) { return KindName(kind).data(); }

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
  PhasesOf(txn).Add(p, dt);
}

Breakdown& Tracer::PhasesOf(std::uint64_t txn) {
  if (Breakdown* b = txn_phases_.find(txn)) return *b;
  txn_phases_.emplace(txn, Breakdown{});
  return *txn_phases_.find(txn);
}

void Tracer::DrainRemoteAttributions(int home, Tracer& dest) {
  auto& pending = pending_remote_[static_cast<std::size_t>(home)];
  for (const RemoteAttribution& r : pending) {
    dest.PhasesOf(r.txn).Add(r.phase, r.dt);
  }
  pending.clear();
}

double Tracer::ServerAttributed(std::uint64_t txn) const {
  const Breakdown* b = txn_phases_.find(txn);
  if (b == nullptr) return 0.0;
  return b->phase[static_cast<int>(Phase::kLockWait)] +
         b->phase[static_cast<int>(Phase::kCallbackWait)] +
         b->phase[static_cast<int>(Phase::kServerCpu)] +
         b->phase[static_cast<int>(Phase::kDisk)];
}

Breakdown Tracer::TakePhases(std::uint64_t txn) {
  const Breakdown* found = txn_phases_.find(txn);
  if (found == nullptr) return Breakdown{};
  const Breakdown b = *found;
  txn_phases_.erase(txn);
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

using Key = MergedEvents::Key;
using Ring = MergedEvents::Ring;

/// Keys for every retained event of `rings`, sorted by (t, ring index,
/// position). A ring's positions follow emission order, as its seq does,
/// so this is (t, partition, seq) order without moving an Event.
std::vector<Key> TimeOrder(std::span<const Ring> rings) {
  const auto less = [](const Key& x, const Key& y) {
    return x.t < y.t || (x.t == y.t && x.rank < y.rank);
  };
  // Emission order is nearly time order: instants are stamped when they
  // are emitted, and mostly spans, stamped with their start, land behind
  // later events. The keys that extend the running maximum of t are
  // already sorted; std::sort the rest and merge them in.
  std::size_t n = 0;
  for (const Ring& ring : rings) n += ring[0].size() + ring[1].size();
  std::vector<Key> keys;
  keys.reserve(n);
  std::vector<Key> late;
  double latest = -std::numeric_limits<double>::infinity();
  for (std::uint64_t r = 0; r < rings.size(); ++r) {
    PSOODB_CHECK(rings[r][0].size() + rings[r][1].size() <= 0xffffffffu,
                 "trace ring too large to sort");
    std::uint64_t rank = r << 32;
    for (const std::span<const Event> half : rings[r]) {
      for (const Event& e : half) {
        if (e.t >= latest) {
          latest = e.t;
          keys.push_back(Key{e.t, rank++});
        } else {
          late.push_back(Key{e.t, rank++});
        }
      }
    }
  }
  std::sort(late.begin(), late.end(), less);
  const auto sorted_end = static_cast<std::ptrdiff_t>(keys.size());
  keys.insert(keys.end(), late.begin(), late.end());
  std::inplace_merge(keys.begin(), keys.begin() + sorted_end, keys.end(),
                     less);
  return keys;
}

/// Everything the sinks render, decoupled from Tracer members so the
/// single-tracer and merged-partition paths share one renderer per sink.
struct SinkData {
  /// One entry per tracer (partition).
  std::span<const Ring> rings;
  /// Render order. Empty: the one ring renders in emission order.
  std::span<const Key> order;
  std::uint64_t dropped = 0;
  std::int32_t page_filter = -1;
  std::uint64_t commits = 0;
  std::uint64_t violations = 0;
  double phase_totals[kNumPhases] = {};

  std::size_t num_events() const {
    std::size_t n = 0;
    for (const Ring& ring : rings) n += ring[0].size() + ring[1].size();
    return n;
  }

  /// Calls f(event, seq) for each event in render order. A merge of several
  /// rings renumbers seq from 0 in that order; one ring keeps its own seq.
  template <typename F>
  void ForEachEvent(F&& f) const {
    if (order.empty()) {
      for (const Ring& ring : rings) {
        for (const std::span<const Event> half : ring) {
          for (const Event& e : half) f(e, e.seq);
        }
      }
      return;
    }
    const bool renumber = rings.size() > 1;
    std::uint64_t i = 0;
    for (const Key& k : order) {
      const auto& [older, newer] = rings[k.rank >> 32];
      const std::size_t pos = k.rank & 0xffffffffu;
      const Event& e =
          pos < older.size() ? older[pos] : newer[pos - older.size()];
      f(e, renumber ? i : e.seq);
      ++i;
    }
  }
};

SinkData SingleSink(const Ring& ring) {
  SinkData d;
  d.rings = std::span<const Ring>(&ring, 1);
  return d;
}

std::string RenderJsonl(const TraceMeta& meta, const SinkData& d) {
  const std::size_t num_events = d.num_events();
  std::string out;
  out.reserve(num_events * 128 + 512);  // a line is ~115 bytes
  Append(out, "{\"psoodb_trace\":1,\"protocol\":\"", meta.protocol,
         "\",\"clients\":", meta.num_clients, ",\"servers\":", meta.num_servers,
         ",\"seed\":", meta.seed, ",\"events\":", num_events,
         ",\"dropped\":", d.dropped, ",\"page_filter\":", d.page_filter,
         "}\n");
  d.ForEachEvent([&out](const Event& e, std::uint64_t seq) {
    Append(out, "{\"t\":", Fixed{e.t, 9}, ",\"k\":\"", KindName(e.kind),
           "\",\"node\":", e.node, ",\"txn\":", e.txn, ",\"page\":", e.page,
           ",\"a\":", e.a, ",\"b\":", e.b, ",\"aux\":", e.aux,
           ",\"dur\":", Fixed{e.dur, 9}, ",\"seq\":", seq, "}\n");
  });
  Append(out, "{\"summary\":1,\"commits\":", d.commits,
         ",\"violations\":", d.violations, ",\"phases\":{");
  for (int p = 0; p < kNumPhases; ++p) {
    Append(out, p == 0 ? "\"" : ",\"", kPhaseNames[p], "\":",
           Fixed{d.phase_totals[p], 9});
  }
  out += "}}\n";
  return out;
}

/// Chrome track id of a node: client c is tid c + 1 and server i (NodeId
/// -1 - i) is tid first_server + i, where first_server is
/// max(1000, clients) + 1, so server tracks follow every client track.
int TidOf(int node, int first_server) {
  return node >= 0 ? node + 1 : first_server - 1 - node;
}

/// `d.order` must hold every event in (t, ...) order. `extra_events`
/// (optional) is a pre-rendered ",\n"-separated fragment appended inside
/// the traceEvents array — telemetry counter tracks, already time-ordered
/// per track.
std::string RenderChrome(const TraceMeta& meta, const SinkData& d,
                         const std::string* extra_events) {
  const int first_server = std::max(1000, meta.num_clients) + 1;
  // One bit per track in use (an int16 node maps below first_server +
  // 32768); the thread_name records follow in tid order.
  std::vector<std::uint64_t> used(
      static_cast<std::size_t>(first_server + 32768) / 64 + 1);
  for (const Ring& ring : d.rings) {
    for (const std::span<const Event> half : ring) {
      for (const Event& e : half) {
        const auto tid = static_cast<std::size_t>(TidOf(e.node, first_server));
        used[tid / 64] |= std::uint64_t{1} << (tid % 64);
      }
    }
  }
  std::string out;
  // An event is ~155-165 bytes.
  out.reserve(d.order.size() * 176 +
              (extra_events != nullptr ? extra_events->size() : 0) + 1024);
  Append(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"protocol\":\"",
         meta.protocol, "\",\"seed\":", meta.seed, "},\"traceEvents\":[\n");
  Append(out,
         "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"psoodb ",
         meta.protocol, "\"}}");
  for (std::size_t w = 0; w < used.size(); ++w) {
    for (std::uint64_t bits = used[w]; bits != 0; bits &= bits - 1) {
      const int tid = static_cast<int>(w * 64) + std::countr_zero(bits);
      const bool server = tid >= first_server;
      Append(out, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":", tid,
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"",
             server ? "server " : "client ",
             server ? tid - first_server : tid - 1, "\"}}");
    }
  }
  d.ForEachEvent([&out, first_server](const Event& e, std::uint64_t seq) {
    // One Append per record: the span/instant head, then the shared tail.
    const auto record = [&](const auto&... head) {
      Append(out, head..., ",\"name\":\"", KindName(e.kind), "\",\"cat\":\"",
             kEventCategories[static_cast<int>(e.kind)],
             "\",\"args\":{\"txn\":", e.txn, ",\"page\":", e.page,
             ",\"a\":", e.a, ",\"b\":", e.b, ",\"aux\":", e.aux,
             ",\"seq\":", seq, "}}");
    };
    const int tid = TidOf(e.node, first_server);
    const Fixed ts{e.t * 1e6, 3};
    if (e.dur > 0) {
      record(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":", tid, ",\"ts\":", ts,
             ",\"dur\":", Fixed{e.dur * 1e6, 3});
    } else {
      record(",\n{\"ph\":\"i\",\"pid\":1,\"tid\":", tid, ",\"ts\":", ts,
             ",\"s\":\"t\"");
    }
  });
  if (extra_events != nullptr && !extra_events->empty()) {
    Append(out, ",\n", *extra_events);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

std::string Tracer::SerializeJsonl(const TraceMeta& meta) const {
  const Ring ring = Events();
  SinkData d = SingleSink(ring);
  d.dropped = dropped_;
  d.page_filter = page_filter_;
  d.commits = commits_;
  d.violations = violations_;
  for (int p = 0; p < kNumPhases; ++p) d.phase_totals[p] = phase_totals_[p];
  return RenderJsonl(meta, d);
}

std::string Tracer::SerializeChrome(const TraceMeta& meta,
                                    const std::string* extra_events) const {
  const Ring ring = Events();
  SinkData d = SingleSink(ring);
  const std::vector<Key> order = TimeOrder(d.rings);
  d.order = order;
  return RenderChrome(meta, d, extra_events);
}

MergedEvents::MergedEvents(const std::vector<Tracer*>& parts)
    : parts_(parts.begin(), parts.end()) {
  rings_.reserve(parts_.size());
  for (const Tracer* t : parts_) rings_.push_back(t->Events());
  if (parts_.size() > 1) order_ = TimeOrder(rings_);
}

std::string Tracer::SerializeJsonlMerged(const MergedEvents& events,
                                         const TraceMeta& meta) {
  const std::vector<const Tracer*>& parts = events.parts_;
  if (parts.size() == 1) return parts.front()->SerializeJsonl(meta);
  SinkData d;
  d.rings = events.rings_;
  d.order = events.order_;
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

std::string Tracer::SerializeChromeMerged(const MergedEvents& events,
                                          const TraceMeta& meta,
                                          const std::string* extra_events) {
  if (events.parts_.size() == 1) {
    return events.parts_.front()->SerializeChrome(meta, extra_events);
  }
  SinkData d;
  d.rings = events.rings_;
  d.order = events.order_;
  return RenderChrome(meta, d, extra_events);
}

}  // namespace psoodb::trace
