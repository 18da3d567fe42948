/// \file simulation.h
/// Discrete-event simulation engine: virtual clock, cancellable event queue,
/// and process (Task) management. This is the DeNet replacement at the base
/// of the page-server OODBMS model.
///
/// The event queue (event_heap.h) is a small sorted near tier in front of an
/// index-tracked 4-ary tombstone heap: the next event pops from the near
/// tier's end with no sift, cancellation is an O(1) in-place tombstone, and
/// callback events store small callables inline — no per-event allocation
/// and no hash lookups anywhere on the hot path. Same-instant wakeups
/// (ScheduleNow) skip both tiers through a FIFO lane merged in (time, seq)
/// order. Resource completions (ScheduleTimer) are uncancellable timer
/// entries: no slot, no id, just a registered target called with a token.

#ifndef PSOODB_SIM_SIMULATION_H_
#define PSOODB_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/event_heap.h"
#include "sim/task.h"
#include "util/annotations.h"
#include "util/check.h"

namespace psoodb::sim {

/// The discrete-event simulation engine.
///
/// Events at equal timestamps fire in FIFO (schedule) order, whatever their
/// kind. Events other than timers can be cancelled; cancelling an id that
/// already fired (or was never scheduled) is a harmless no-op, which is what
/// makes awaitable destructors safe.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `h` to be resumed at absolute time `at` (>= now()).
  EventId Schedule(SimTime at, std::coroutine_handle<> h) {
    PSOODB_CHECK(at >= now_, "cannot schedule into the past (at=%g now=%g)",
                 at, now_);
    PSOODB_CHECK(h, "null coroutine handle");
    return heap_.PushHandle(at < now_ ? now_ : at, h);
  }

  /// Schedules a plain callable at absolute time `at`. Callables up to
  /// detail::EventCallback::kInlineBytes are stored inline (no allocation);
  /// larger ones pay a single heap allocation.
  template <typename F>
  EventId ScheduleCallback(SimTime at, F&& fn) {
    PSOODB_CHECK(at >= now_, "cannot schedule into the past (at=%g now=%g)",
                 at, now_);
    if constexpr (std::is_constructible_v<bool, const F&>) {
      PSOODB_CHECK(static_cast<bool>(fn), "null callback");
    }
    return heap_.PushCallback(at < now_ ? now_ : at, std::forward<F>(fn));
  }

  /// Schedules `h` to run after the currently executing event, at now(),
  /// behind everything already scheduled for now(): the same order as
  /// Schedule(now(), h), through the queue's slot-free same-instant lane.
  EventId ScheduleNow(std::coroutine_handle<> h) {
    PSOODB_CHECK(h, "null coroutine handle");
    return heap_.PushNow(now_, h);
  }

  /// Registers `fire(self, token)` as the target of timer entries and
  /// returns its id, valid for this simulation's lifetime. `self` must
  /// outlive every entry scheduled for it, or the simulation's teardown.
  TimerId RegisterTimer(TimerFn fire, void* self) {
    return heap_.RegisterTimer(fire, self);
  }

  /// Schedules a timer entry for target `id` at absolute time `at` (>=
  /// now()) and returns its token, which is never 0; the target receives it
  /// when the entry fires. A timer entry cannot be cancelled: a target that
  /// supersedes one keeps the new token and ignores the old one when it
  /// fires (which still counts as a processed event).
  std::uint64_t ScheduleTimer(SimTime at, TimerId id) {
    PSOODB_CHECK(at >= now_, "cannot schedule into the past (at=%g now=%g)",
                 at, now_);
    return heap_.PushTimer(at, id);
  }

  /// Cancels a pending event. Safe to call with stale or zero ids.
  void Cancel(EventId id) { heap_.Cancel(id); }

  /// Starts `t` as a detached root process owned by the simulation. The task
  /// begins executing immediately (it may run until its first suspension).
  void Spawn(Task t);

  /// Processes one event. Returns false if the queue is empty.
  bool Step() {
    EventHeap::Fired f;
    if (!heap_.PopLive(&f)) return false;
    PSOODB_DCHECK(f.at >= now_, "event fired in the past");
    now_ = f.at;
    ++events_processed_;
    if (f.handle) {
      f.handle.resume();
    } else if (f.fire != nullptr) {
      f.fire(f.self, f.token);
    } else {
      f.callback.Invoke();
    }
    return true;
  }

  /// Runs until the event queue is empty or `max_events` events fired.
  /// Returns the number of events processed.
  std::uint64_t Run(std::uint64_t max_events =
                        std::numeric_limits<std::uint64_t>::max());

  /// Runs until simulated time reaches `t` (events at exactly `t` fire).
  /// The clock is advanced to `t` even if the queue drains early.
  void RunUntil(SimTime t);

  /// Runs every event strictly before `limit` (events at exactly `limit` do
  /// NOT fire) and returns the number processed. Unlike RunUntil, the clock
  /// is left at the last fired event — conservative parallel windows
  /// (sim/shard.h) need now() to stay a real event time so newly scheduled
  /// work is never forced forward to the window edge.
  std::uint64_t RunEventsBefore(SimTime limit);

  /// Time of the earliest pending event, or false if the queue is empty.
  bool PeekNextEventTime(SimTime* at) { return heap_.PeekLiveTime(at); }

  /// Total number of events processed so far.
  std::uint64_t events_processed() const { return events_processed_; }

  /// Number of live detached root processes.
  std::size_t live_processes() const {
    std::size_t n = 0;
    for (detail::TaskPromise* p = roots_head_; p != nullptr; p = p->root_next) {
      ++n;
    }
    return n;
  }

  /// Pending (schedulable) events.
  std::size_t live_events() const { return heap_.live(); }
  /// Queued entries including cancelled tombstones — the queue's memory bound
  /// (compaction keeps this <= ~2x live_events(); see event_heap.h).
  std::size_t event_queue_size() const { return heap_.size(); }
  /// Tombstone compaction passes so far.
  std::uint64_t queue_compactions() const { return heap_.compactions(); }

  /// Awaitable: suspends the calling task for `dt` seconds of simulated time.
  /// Usage: `co_await sim.Delay(0.010);`. Discarding the awaiter (not
  /// co_awaiting it) would silently skip the delay.
  class [[nodiscard]] DelayAwaiter;
  [[nodiscard]] DelayAwaiter Delay(SimTime dt);

 private:
  static void FormatCheckContext(const void* arg, char* buf, int buflen);

  // Under ShardGroup each Simulation is a partition: all four are touched
  // only by the worker thread currently running this partition's window (or
  // by the serial phase, while every worker is parked at the barrier).
  SimTime now_ PSOODB_PARTITION_LOCAL = 0.0;
  std::uint64_t events_processed_ PSOODB_PARTITION_LOCAL = 0;
  EventHeap heap_ PSOODB_PARTITION_LOCAL;
  /// Head of the intrusive list of live detached root coroutines (owned;
  /// destroyed on teardown). Completing roots unlink themselves in their
  /// final awaiter — O(1), no container traffic on the per-spawn hot path.
  detail::TaskPromise* roots_head_ PSOODB_PARTITION_LOCAL = nullptr;
  /// Stamps check-failure reports with the simulated time and event count.
  util::CheckContext check_frame_{&FormatCheckContext, this};
};

/// Awaitable returned by Simulation::Delay().
class Simulation::DelayAwaiter {
 public:
  DelayAwaiter(Simulation& sim, SimTime dt) : sim_(sim), dt_(dt) {}
  DelayAwaiter(const DelayAwaiter&) = delete;
  DelayAwaiter& operator=(const DelayAwaiter&) = delete;
  ~DelayAwaiter() {
    if (!fired_ && id_ != 0) sim_.Cancel(id_);
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    id_ = sim_.Schedule(sim_.now() + dt_, h);
  }
  void await_resume() noexcept { fired_ = true; }

 private:
  Simulation& sim_;
  SimTime dt_;
  EventId id_ = 0;
  bool fired_ = false;
};

inline Simulation::DelayAwaiter Simulation::Delay(SimTime dt) {
  return DelayAwaiter(*this, dt);
}

}  // namespace psoodb::sim

#endif  // PSOODB_SIM_SIMULATION_H_
