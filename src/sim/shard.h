/// \file shard.h
/// The event-loop layer every System run goes through: a ShardGroup owns P
/// `Simulation` instances (P = 1 for the paper's one shared network; one per
/// server partition, clients grouped with their home server, when a run asks
/// for parallel servers) and runs them.
///
/// One partition needs no synchronization: Run steps its simulation one
/// event at a time on the calling thread and calls the caller's hook after
/// every event. Several partitions run on K worker threads under
/// conservative time windows:
///
///  - Every partition owns a private event heap and clock. Within a window,
///    each partition runs strictly sequentially on one worker thread and
///    processes every local event with `t < W_p`, including events it
///    schedules for itself during the window.
///  - Windows are *per partition and adaptive*. Let `a_q` be partition q's
///    earliest pending activity (heap minimum and inbound outbox-minimum
///    registers), `m1 <= m2` the two smallest activity minima, and `L` (the
///    *lookahead*) a lower bound on every cross-partition delivery latency.
///    Every partition gets at least the classic uniform window `m1 + L` —
///    the partition holding `m1` can reach anyone directly at `m1 + L`, so
///    no more is safe for the others. The `m1` holder itself — the laggard
///    limiting progress — gets more: the earliest message that can reach
///    *it* is either another partition's own activity (arriving
///    `>= m2 + L`) or a causal chain seeded by its own next event, which
///    must cross to a neighbour (`>= m1 + L`) and come back (`>= m1 + 2L`).
///    Its window end therefore jumps to
///      min(m2 + L, m1 + 2L)
///    letting the laggard catch up two lookaheads per window — or straight
///    to second place — instead of one. Stretching any *other* partition is
///    unsound (its clock could pass a later window's bound and receive a
///    message from its own causal past); with only the laggard stretched,
///    every activity minimum after the window is `>= min(m2, m1 + L)`, so
///    the next windows bound every clock and causality is preserved.
///  - Cross-partition messages are not scheduled directly into the remote
///    heap (that would race). They are appended to a per-(src, dest) outbox
///    — written only by src's worker thread, so unsynchronized — and merged
///    into the destination heap at the start of the next window by the
///    worker that owns the destination, in exact
///    `(arrival time, src partition, emission order)` order. The merge for
///    destination p touches only p's heap and the (src, p) outboxes, so the
///    per-destination merges are independent; the barrier orders them
///    against the senders' outbox writes. Together with the event heap's
///    FIFO tie-break at equal timestamps this makes the merged schedule a
///    pure function of the per-partition schedules: results are
///    byte-identical for any worker-thread count, including 1.
///  - The barrier's completion function is the *serial phase*: it runs the
///    caller's hook (warmup/measurement state machine, cross-partition
///    deadlock coordination, trace merging) and computes the next windows
///    from the per-partition activity minima. `std::barrier` gives the
///    happens-before edges: every worker's window writes are visible to the
///    serial phase, and its writes (window_ends_) to every worker.
///
/// Progress: after a window every heap's next event is `>= W_p >= T_min + L`
/// (locals below `W_p` were drained, cross arrivals are `>= T_min + L`), so
/// successive windows advance the front by at least `L`. The serial-phase
/// hook may inject events into partition p, but only at `t >= window_end(p)`
/// — injecting earlier could land behind a clock that already passed the
/// time. `Post` and the scheduling CHECKs enforce this per destination.

#ifndef PSOODB_SIM_SHARD_H_
#define PSOODB_SIM_SHARD_H_

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_heap.h"
#include "sim/simulation.h"
#include "util/annotations.h"

namespace psoodb::sim {

class ShardGroup {
 public:
  /// Serial-phase hook: runs at every window barrier, after the windows'
  /// events, while all worker threads are parked. It may inspect and mutate
  /// any partition, but may only schedule new events into partition p at
  /// `t >= window_end(p)` (`window_end()` is a safe bound for every
  /// partition). Returns true to stop the run.
  using SerialHook = std::function<bool(ShardGroup&)>;

  /// `partitions` >= 1 simulations; `threads` worker threads (clamped to
  /// [1, partitions]); `lookahead` seconds, a lower bound on every
  /// cross-partition delivery latency (> 0 unless there is one partition).
  ShardGroup(int partitions, int threads, double lookahead);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int partitions() const { return partitions_; }
  int threads() const { return threads_; }
  double lookahead() const { return lookahead_; }
  Simulation& sim(int p) { return *sims_[static_cast<std::size_t>(p)]; }

  /// Cross-partition delivery: runs `fn` in partition `dest` at absolute
  /// time `at`. Must be called from the worker thread currently executing
  /// partition `src` (or from the serial phase), with `at >=
  /// window_end(dest)`.
  void Post(int src, int dest, SimTime at, InlineFunction fn);

  struct RunResult {
    std::uint64_t events = 0;   ///< events processed, summed over partitions
    std::uint64_t windows = 0;  ///< conservative windows executed
    bool stalled = false;       ///< stopped because every queue drained
  };

  /// Runs until `hook` (callable as `bool(ShardGroup&)`) returns true or
  /// every partition stalls. Deterministic: the complete event order (and
  /// thus every result) is independent of `threads`.
  ///
  /// One partition steps its simulation one event at a time on the calling
  /// thread and calls `hook` after every event: no barrier, worker thread,
  /// wall-clock read or window count. Several partitions run windows and
  /// call `hook` once per window, in the serial phase (see SerialHook).
  template <typename Hook>
  RunResult Run(Hook&& hook) {
    // Several partitions wrap a copy: wrapping a reference would let the
    // hook's captures escape and reload them after every event below.
    if (partitions_ > 1) return RunWindows(SerialHook(hook));
    Simulation& sim = *sims_[0];
    const std::uint64_t events_before = sim.events_processed();
    bool stalled = false;
    do {
      if (!sim.Step()) {
        stalled = true;
        break;
      }
    } while (!hook(*this));
    return RunResult{sim.events_processed() - events_before, 0, stalled};
  }

  /// End of partition p's current (or, inside the serial phase, the just-
  /// finished) window — the earliest time at which the hook may inject
  /// events into p.
  SimTime window_end(int p) const {
    return window_ends_[static_cast<std::size_t>(p)];
  }
  /// Minimum window end over all partitions: a time safe for injection into
  /// *any* partition.
  SimTime window_end() const { return window_end_min_; }

  /// The global virtual clock: max over partition clocks. Deterministic
  /// because each partition clock is.
  SimTime GlobalNow() const;

  /// Events processed so far, summed over partitions (monotone across Runs).
  std::uint64_t TotalEvents() const;

  // --- Telemetry observation (src/metrics/timeseries.h) -------------------
  // Pure reads for the serial-phase telemetry probes; call only from the
  // serial phase / hook (workers parked) or between Runs.

  /// Conservative windows executed so far (monotone across Runs; always 0
  /// with one partition).
  std::uint64_t windows() const { return windows_; }
  /// Windows in which the laggard partition's adaptive end ran past the
  /// classic uniform `T_min + L` bound.
  std::uint64_t windows_stretched() const { return windows_stretched_; }
  /// Cross-partition messages parked in partition `src`'s outboxes (all
  /// destinations, both parities) awaiting the next window merge.
  std::size_t OutboxDepth(int src) const;

  /// Per-partition barrier-stall seconds: simulated time inside past windows
  /// during which the partition had nothing to run (clock stopped short of
  /// the window end). A pure function of the event schedule — byte-identical
  /// at any worker-thread count — maintained by the workers themselves.
  double stall_seconds(int p) const {
    return clock_[static_cast<std::size_t>(p)].stall;
  }

  // --- Wall-clock accounting (reporting only; never feeds the simulation,
  // so determinism is unaffected; windowed runs only) ----------------------
  // On a host with fewer cores than partitions, wall-clock speedup cannot
  // be observed directly; these let callers do critical-path analysis:
  // projected T(P) ~= serial_seconds + max_p busy_seconds(p).

  /// Wall seconds spent executing partition `p`'s events, summed over
  /// windows (regardless of which worker thread ran it). Includes the
  /// inbox merge (see merge_seconds).
  double busy_seconds(int p) const {
    return clock_[static_cast<std::size_t>(p)].busy;
  }
  /// Wall seconds of busy_seconds(p) spent merging the partition's inbound
  /// outboxes into its heap.
  double merge_seconds(int p) const {
    return clock_[static_cast<std::size_t>(p)].merge;
  }
  /// Wall seconds spent in the serial phase (hook + next-window
  /// computation).
  double serial_seconds() const { return serial_seconds_; }
  /// Wall seconds of serial_seconds() spent inside the caller's hook.
  double serial_hook_seconds() const { return serial_hook_seconds_; }

 private:
  struct Msg {
    SimTime at;
    int src;
    std::uint32_t seq;  ///< emission order within (src, dest), for the sort
    InlineFunction fn;
  };

  struct Completion {
    ShardGroup* group;
    void operator()() noexcept { group->SerialPhase(); }
  };

  std::size_t OutboxSlot(int src, int dest, int parity) const {
    return (static_cast<std::size_t>(src) *
                static_cast<std::size_t>(partitions_) +
            static_cast<std::size_t>(dest)) *
               2 +
           static_cast<std::size_t>(parity);
  }
  std::vector<Msg>& Outbox(int src, int dest, int parity) {
    return outbox_[OutboxSlot(src, dest, parity)];
  }

  /// Run for several partitions: conservative windows on the workers.
  RunResult RunWindows(const SerialHook& hook);
  void WorkerLoop(int worker);
  void SerialPhase();
  /// Computes the per-partition adaptive window ends from the activity
  /// minima; false if every heap and outbox is empty (stall).
  bool ComputeWindows();

#if PSOODB_SEED_CONCURRENCY_BUGS
  // Test-only seeded defect (never compiled — the flag is never defined).
  // The analyzer still lexes this block, and tests/analyzer_test.cpp asserts
  // the shard-escape check catches the by-reference capture crossing the
  // partition boundary in the definition.
  void SeedEscapeBugForAnalyzerTest(int src, int dest);
#endif
  /// Drains every (src, dest) outbox into dest's heap in merged order.
  /// Touches only dest's state, so concurrent calls for distinct dest are
  /// safe; the caller must hold a barrier-ordered view of the outboxes.
  void MergeInbox(int dest);

 public:
  /// Min next-event time over all partitions; false if every heap is empty.
  /// Safe to call from the serial-phase hook (e.g. to detect that the run
  /// will stall unless the hook injects work).
  bool NextEventTime(SimTime* at);

 private:

  const int partitions_;
  const int threads_;
  const double lookahead_;
  /// Partition-owned: element p is touched only by the worker currently
  /// running partition p (or by the serial phase / hook, while workers are
  /// parked at the barrier).
  std::vector<std::unique_ptr<Simulation>> sims_ PSOODB_PARTITION_LOCAL;
  /// Double-buffered by window parity: (src * P + dest) * 2 + parity.
  /// Post writes the *current* parity (only src's worker touches it);
  /// MergeInbox drains the *previous* parity at the next window start.
  /// Merging the current parity instead would race: dest's owner could read
  /// an outbox another worker is still appending to in the same window. The
  /// parity split plus the barrier between the windows makes every drained
  /// buffer quiescent.
  std::vector<std::vector<Msg>> outbox_ PSOODB_PARTITION_LOCAL;
  /// Earliest pending arrival per outbox buffer, same indexing (+inf when
  /// empty). Written under the same single-writer rules as the buffers;
  /// read by the serial phase to compute the next windows without touching
  /// the message payloads.
  std::vector<SimTime> outbox_min_ PSOODB_PARTITION_LOCAL;
  /// Per-destination gather scratch for MergeInbox, reused across windows
  /// so the merge allocates only on high-water growth. Element p is touched
  /// only by the worker currently merging destination p.
  std::vector<std::vector<Msg*>> merge_scratch_ PSOODB_PARTITION_LOCAL;
  /// Parity Post writes this window; flipped at the end of each serial
  /// phase, so MergeInbox drains `1 - cur_parity_`. Written only in the
  /// serial phase; the barrier publishes it to the workers.
  int cur_parity_ PSOODB_SHARD_SHARED = 0;
  /// Cache-line padded so concurrent per-partition accumulation does not
  /// perturb the times it measures. busy/merge are wall clock (reporting
  /// only); stall/prev_window_end are simulated time (deterministic).
  struct alignas(64) PartitionClock {
    double busy = 0.0;
    double merge = 0.0;
    double stall = 0.0;
    SimTime prev_window_end = 0.0;
  };
  std::vector<PartitionClock> clock_ PSOODB_PARTITION_LOCAL;
  /// Serial-phase-written, barrier-published group state.
  double serial_seconds_ PSOODB_SHARD_SHARED = 0.0;
  double serial_hook_seconds_ PSOODB_SHARD_SHARED = 0.0;
  std::optional<std::barrier<Completion>> barrier_ PSOODB_SHARD_SHARED;
  const SerialHook* hook_ PSOODB_SHARD_SHARED = nullptr;
  /// Adaptive per-partition window ends, recomputed each serial phase.
  std::vector<SimTime> window_ends_ PSOODB_SHARD_SHARED;
  SimTime window_end_min_ PSOODB_SHARD_SHARED = 0.0;
  std::uint64_t windows_ PSOODB_SHARD_SHARED = 0;
  std::uint64_t windows_stretched_ PSOODB_SHARD_SHARED = 0;
  bool done_ PSOODB_SHARD_SHARED = false;
  bool stalled_ PSOODB_SHARD_SHARED = false;
};

}  // namespace psoodb::sim

#endif  // PSOODB_SIM_SHARD_H_
