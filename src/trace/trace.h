/// \file trace.h
/// Deterministic, sim-time-stamped structured event tracing and per-txn
/// latency decomposition. Opt-in via SystemParams::trace / PSOODB_TRACE=1;
/// when off, SystemContext::tracer stays null and every instrumentation site
/// reduces to one pointer test — no allocation, no formatting, no change in
/// event counts or ordering, so simulation results are bit-identical.
///
/// Two layers share this file:
///
///  * Events: fixed-size POD records in a bounded ring buffer (oldest events
///    drop once `trace_buffer_events` is exceeded), serialized after the run
///    to compact JSONL and to Chrome trace-event JSON (Perfetto-loadable).
///
///  * Spans/phases: per-transaction accumulated phase durations. Servers
///    attribute lock-wait / callback-wait / server-CPU / disk intervals to
///    the requesting TxnId; clients time think, backoff, their own CPU
///    awaits, and each RPC window. Per-RPC network time is the residual
///    window elapsed minus server-attributed delta (sound because sim time
///    only advances at co_await points). At commit, FinalizeCommit checks
///    the invariant  backoff + client_cpu + network + lock_wait +
///    callback_wait + server_cpu + disk == response_time  exactly (a missed
///    client-side await shows up as a violation; a missed server-side one
///    merely misattributes to `network`).
///
/// Timestamps are simulated seconds — identical binary + seed + params gives
/// byte-identical serialized traces regardless of host or thread count.

#ifndef PSOODB_TRACE_TRACE_H_
#define PSOODB_TRACE_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "storage/types.h"
#include "util/annotations.h"
#include "util/flat_set.h"

namespace psoodb::trace {

/// Phases of a committed transaction's response-time decomposition.
/// kThink precedes the response window and is reported but excluded from
/// the sums-to-response invariant.
enum class Phase : int {
  kThink = 0,
  kBackoff,
  kClientCpu,
  kNetwork,
  kLockWait,
  kCallbackWait,
  kServerCpu,
  kDisk,
};
inline constexpr int kNumPhases = 8;

const char* PhaseName(int phase);

enum class EventKind : std::uint8_t {
  kTxnBegin = 0,   ///< node=client, txn
  kTxnCommit,      ///< span: t=first start, dur=response time
  kTxnAbort,       ///< node=client, txn (deadlock victim)
  kTxnRestart,     ///< span: dur=restart backoff delay
  kMsgSend,        ///< node=sender, aux=receiver, a=bytes, b=MsgKind
  kMsgRecv,        ///< node=receiver, aux=sender, a=bytes, b=MsgKind
  kLockWait,       ///< first conflict: page/a=oid, b=holder txn
  kLockGrant,      ///< span: blocked-acquire wait that ended in a grant
  kLockAbort,      ///< span: blocked-acquire wait that ended aborted
  kLockRelease,    ///< end-of-txn ReleaseAll, a=#locks released
  kDeEscalate,     ///< span: PS-AA de-escalation round trip, b=holder txn
  kCallbackIssue,  ///< one callback message queued, aux=target client
  kCallbackRound,  ///< span: callback fan-out issue->drain, a=#pending
  kTokenRecall,    ///< span: PS-WT write-token recall round trip
  kDiskRead,       ///< span: disk service incl. queueing, a=queue depth
  kDiskWrite,      ///< span: same, for writes (install / log / writeback)
  kLocalGrant,     ///< client-side write permission granted (page or object)
  kLocalRevoke,    ///< client-side write permission revoked by callback
};
inline constexpr int kNumEventKinds = 18;

const char* EventKindName(EventKind kind);

/// One trace record. POD on purpose: recording is a bounds check plus a
/// struct store. `node` is a client id (>= 0) or a server NodeId (< 0).
struct Event {
  double t = 0;             ///< sim-time start, seconds
  double dur = 0;           ///< span duration (0 for instant events)
  std::uint64_t seq = 0;    ///< global emission sequence number
  std::uint64_t txn = 0;    ///< owning transaction (0 = none)
  std::int64_t a = -1;      ///< kind-specific (object id, bytes, counts)
  std::int64_t b = -1;      ///< kind-specific (peer txn, MsgKind)
  std::int32_t page = -1;   ///< page id when applicable
  std::int16_t node = 0;
  std::int16_t aux = 0;     ///< kind-specific small field (peer node, ...)
  EventKind kind = EventKind::kTxnBegin;
};

/// Accumulated per-phase durations (seconds).
struct Breakdown {
  double phase[kNumPhases] = {};
  void Add(Phase p, double dt) { phase[static_cast<int>(p)] += dt; }
  void Fold(const Breakdown& other) {
    for (int i = 0; i < kNumPhases; ++i) phase[i] += other.phase[i];
  }
  void Clear() { *this = Breakdown{}; }
};

/// Run identification written into the sink headers.
struct TraceMeta {
  std::string protocol;
  int num_clients = 0;
  int num_servers = 0;
  std::uint64_t seed = 0;
};

class MergedEvents;

class Tracer {
 public:
  Tracer(sim::Simulation& sim, std::size_t capacity, std::int32_t page_filter)
      : sim_(sim), capacity_(capacity == 0 ? 1 : capacity),
        page_filter_(page_filter) {
    // Once, at full size: the ring never grows or copies. Its pages are
    // touched only as events arrive.
    ring_.reserve(capacity_);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// System creates one Tracer per event-loop partition (sim/shard.h) and
  /// calls this once before the run. `partition` is this tracer's index;
  /// with one partition nothing is buffered.
  /// Attributions to transactions homed elsewhere (home = txn % partitions,
  /// by construction of the striding txn ids) are buffered and moved to the
  /// home tracer at window barriers via DrainRemoteAttributions — the
  /// buffers are written only by this partition's worker thread, the drain
  /// runs only in the serial phase, and the drain order (source partition,
  /// then emission order) is fixed, so the floating-point phase sums are
  /// identical for every worker-thread count.
  void ConfigurePartition(int partition, int partitions) {
    partition_ = partition;
    partitions_ = partitions;
    pending_remote_.resize(static_cast<std::size_t>(partitions));
  }

  /// Serial-phase only: moves everything this tracer attributed to
  /// partition `home`'s transactions into `dest` (the home tracer), in
  /// emission order.
  void DrainRemoteAttributions(int home, Tracer& dest);

  double now() const { return sim_.now(); }

  /// Records an instant event (dur = 0) at now().
  void Emit(EventKind kind, int node, std::uint64_t txn,
            std::int32_t page = -1, std::int64_t a = -1, std::int64_t b = -1,
            int aux = 0) {
    EmitSpan(sim_.now(), 0.0, kind, node, txn, page, a, b, aux);
  }

  /// Records a span event with an explicit start time and duration.
  void EmitSpan(double t0, double dur, EventKind kind, int node,
                std::uint64_t txn, std::int32_t page = -1,
                std::int64_t a = -1, std::int64_t b = -1, int aux = 0);

  // --- per-transaction phase attribution -------------------------------

  /// Adds `dt` seconds of `p` to `txn`'s decomposition. Servers attribute
  /// kLockWait / kCallbackWait / kServerCpu / kDisk; clients attribute
  /// kClientCpu around their own CPU awaits.
  void Attribute(std::uint64_t txn, Phase p, double dt);

  /// Sum of the four *server-side* phases attributed to `txn` so far.
  /// Clients snapshot this around each RPC window; the window's network
  /// time is elapsed minus the delta.
  double ServerAttributed(std::uint64_t txn) const;

  /// Removes and returns everything attributed to `txn` (clients fold an
  /// aborted attempt's phases into the current commit cycle with this).
  Breakdown TakePhases(std::uint64_t txn);

  /// Folds the final attempt's attributed phases into `cycle`, checks the
  /// sums-to-response invariant, accumulates the per-phase totals, and
  /// emits the kTxnCommit span.
  void FinalizeCommit(int client, std::uint64_t txn, double start,
                      double response, Breakdown cycle);

  /// Clears events and aggregate totals at the warmup/measurement boundary.
  /// In-flight per-txn attributions are kept: a transaction straddling the
  /// boundary still decomposes exactly.
  void ResetMeasurement();

  // --- aggregates -------------------------------------------------------

  std::uint64_t commits() const { return commits_; }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t events_dropped() const { return dropped_; }
  const double* phase_totals() const { return phase_totals_; }

  /// Events currently retained, in emission order: the ring's older part,
  /// then its newer part (empty until the ring wraps). Views into the ring,
  /// valid until the next Emit or ResetMeasurement.
  std::array<std::span<const Event>, 2> Events() const;

  // --- sinks ------------------------------------------------------------

  /// Compact JSONL: one meta line, one line per event (emission order),
  /// one trailing summary line with the phase totals.
  std::string SerializeJsonl(const TraceMeta& meta) const;

  /// Chrome trace-event JSON ("traceEvents" array), loadable in Perfetto.
  /// Events are sorted by (t, seq) so timestamps are monotone per track;
  /// tracks are pid 1 with tid = client id + 1 for clients and
  /// max(1000, meta.num_clients) + 1 + server index for servers.
  /// `extra_events`, when non-null and non-empty, is a pre-rendered
  /// ",\n"-separated fragment of additional trace events spliced verbatim
  /// into the array (telemetry counter tracks; metrics/timeseries.h).
  std::string SerializeChrome(const TraceMeta& meta,
                              const std::string* extra_events = nullptr) const;

  /// Merged sinks for partitioned runs, both rendered from one view: the
  /// events in its (t, partition, per-partition seq) order with seq
  /// renumbered, aggregates summed in partition order. Deterministic for
  /// any worker-thread count. A one-tracer view renders that tracer's own
  /// sinks (emission order and seq kept), which a merge would re-sort and
  /// renumber.
  static std::string SerializeJsonlMerged(const MergedEvents& events,
                                          const TraceMeta& meta);
  static std::string SerializeChromeMerged(
      const MergedEvents& events, const TraceMeta& meta,
      const std::string* extra_events = nullptr);

 private:
  sim::Simulation& sim_;
  std::size_t capacity_;
  std::int32_t page_filter_;

  // One Tracer serves one partition's Simulation: all mutable state below
  // is touched only by that partition's worker (the static *Merged sinks
  // run in the serial phase / after the run, when workers are quiescent).
  std::vector<Event> ring_ PSOODB_PARTITION_LOCAL;
  /// Next overwrite slot once ring_ is full.
  std::size_t ring_next_ PSOODB_PARTITION_LOCAL = 0;
  std::uint64_t seq_ PSOODB_PARTITION_LOCAL = 0;
  std::uint64_t dropped_ PSOODB_PARTITION_LOCAL = 0;

  /// `txn`'s attributed phases, added if absent.
  Breakdown& PhasesOf(std::uint64_t txn);

  // Lookup/erase only — never iterated. Erasing keeps the table's block, so
  // attribution allocates only when more transactions are in flight than
  // ever before.
  util::FlatMap<std::uint64_t, Breakdown> txn_phases_ PSOODB_PARTITION_LOCAL;

  double phase_totals_[kNumPhases] PSOODB_PARTITION_LOCAL = {};
  std::uint64_t commits_ PSOODB_PARTITION_LOCAL = 0;
  std::uint64_t violations_ PSOODB_PARTITION_LOCAL = 0;

  // --- partitioned runs only (see ConfigurePartition) -------------------
  struct RemoteAttribution {
    std::uint64_t txn;
    Phase phase;
    double dt;
  };
  int partition_ = 0;
  int partitions_ = 1;
  /// pending_remote_[home]: attributions to remote-homed transactions, in
  /// emission order, awaiting the next barrier drain.
  std::vector<std::vector<RemoteAttribution>> pending_remote_
      PSOODB_PARTITION_LOCAL;
};

/// The retained events of a run's tracers (one per event-loop partition)
/// in the order both merged sinks render them: by (t, partition,
/// per-partition seq), built once per run. The partition index breaks
/// same-timestamp ties between rings, so the order is a pure function of
/// the per-partition traces (thread-count independent). One tracer is not
/// merged: its sinks keep its own order. Holds views into the rings, valid
/// until the next Emit or ResetMeasurement on any of the tracers.
class MergedEvents {
 public:
  explicit MergedEvents(const std::vector<Tracer*>& parts);

  /// A retained event's place in a time-sorted sink: its timestamp, then
  /// its tracer's index (high 32 bits) and its position in that tracer's
  /// emission order (low 32 bits).
  struct Key {
    double t;
    std::uint64_t rank;
  };
  using Ring = std::array<std::span<const Event>, 2>;

 private:
  friend class Tracer;
  std::vector<const Tracer*> parts_;
  std::vector<Ring> rings_;  ///< parts_[i]->Events()
  std::vector<Key> order_;   ///< sorted; empty for one tracer
};

/// RAII phase attribution for one interval in a coroutine: captures now()
/// at construction and attributes the elapsed time on destruction, so the
/// attribution survives both normal exit and a task that ends aborted
/// (its frame is destroyed with the timer in scope). Inert (no clock read)
/// when `tracer` is null.
class PhaseTimer {
 public:
  PhaseTimer(Tracer* tracer, std::uint64_t txn, Phase phase)
      : tracer_(tracer), txn_(txn), phase_(phase),
        t0_(tracer != nullptr ? tracer->now() : 0.0) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() {
    if (tracer_ != nullptr) tracer_->Attribute(txn_, phase_, tracer_->now() - t0_);
  }

 private:
  Tracer* tracer_;
  std::uint64_t txn_;
  Phase phase_;
  double t0_;
};

}  // namespace psoodb::trace

#endif  // PSOODB_TRACE_TRACE_H_
