// Model-checking tests for the event-heap scheduler (event_heap.h): a
// brute-force reference scheduler (sorted-vector scan) is driven through
// randomized schedule/cancel/pop interleavings in lockstep with EventHeap,
// asserting identical pop sequences (including exact FIFO tie-break at equal
// timestamps, across both tiers and the same-instant lane) and identical
// cancellation outcomes. The reference also models tombstones and the
// compaction rule, so the near/far boundary checks compare every queue
// observer after every step. Plus the tombstone-bound regression test
// (cancel-heavy queues stay within ~2x live), a lane-vs-heap-only check of
// every queue observer, and behavioral coverage of the small-buffer callable
// the slots store. ctest gives each case a 10 s timeout (tests/CMakeLists.txt),
// so a queue whose insertion degrades to linear fails instead of passing
// slowly.

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_heap.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "util/inline_function.h"

namespace psoodb::sim {
namespace {

// --- Reference model --------------------------------------------------------

// The obviously-correct scheduler: a flat list scanned for the (time, seq)
// minimum on every pop. O(n) per operation, which is exactly why the real
// kernel doesn't work this way — and why this one is trustworthy. It keeps
// the queue's tombstone contract too: a cancelled event stays queued until
// it reaches the front or a compaction drops it, and a compaction runs after
// a cancel that leaves more than half of at least 64 queued entries dead.
class ReferenceScheduler {
 public:
  int Schedule(SimTime at, int tag) {
    items_.push_back({at, next_seq_++, tag, kPending});
    ++queued_;
    return static_cast<int>(items_.size()) - 1;
  }

  // Returns true if the event was still pending (mirrors EventHeap::Cancel).
  bool Cancel(int ref) {
    if (ref < 0 || ref >= static_cast<int>(items_.size())) return false;
    Item& it = items_[static_cast<std::size_t>(ref)];
    if (it.state != kPending) return false;
    it.state = kTombstone;
    ++dead_;
    if (dead_ > queued_ / 2 && queued_ >= 64) {
      for (Item& x : items_) {
        if (x.state == kTombstone) x.state = kGone;
      }
      queued_ -= dead_;
      dead_ = 0;
      ++compactions_;
    }
    return true;
  }

  // Pops the earliest live event (FIFO at equal times). Returns false if
  // none remain; otherwise fills (at, tag).
  bool Pop(SimTime* at, int* tag) {
    Item* best = Front();
    if (best == nullptr) return false;
    *at = best->at;
    *tag = best->tag;
    best->state = kGone;
    --queued_;
    return true;
  }

  // Time of the earliest live event (mirrors EventHeap::PeekLiveTime).
  bool Peek(SimTime* at) {
    const Item* best = Front();
    if (best == nullptr) return false;
    *at = best->at;
    return true;
  }

  std::size_t live() const { return queued_ - dead_; }
  std::size_t size() const { return queued_; }
  std::size_t dead() const { return dead_; }
  std::uint64_t compactions() const { return compactions_; }

 private:
  enum State { kPending, kTombstone, kGone };
  struct Item {
    SimTime at;
    std::uint64_t seq;
    int tag;
    State state;
  };
  static bool Before(const Item& a, const Item& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  // The earliest pending item, or null. The tombstones ahead of it leave
  // the queue, as they do when a queue pops or peeks past them.
  Item* Front() {
    Item* best = nullptr;
    for (Item& it : items_) {
      if (it.state == kPending && (best == nullptr || Before(it, *best))) {
        best = &it;
      }
    }
    for (Item& it : items_) {
      if (it.state == kTombstone && (best == nullptr || Before(it, *best))) {
        it.state = kGone;
        --queued_;
        --dead_;
      }
    }
    return best;
  }

  std::vector<Item> items_;
  std::uint64_t next_seq_ = 0;
  std::size_t queued_ = 0;  // pending items and tombstones
  std::size_t dead_ = 0;
  std::uint64_t compactions_ = 0;
};

// --- Model check ------------------------------------------------------------

// A coroutine that appends its tag to `fired` when resumed: the payload of
// same-instant wakeups, since the lane stores coroutine handles only.
// Created suspended; the Wakers container owns and destroys the frames.
struct Waker {
  struct promise_type {
    Waker get_return_object() {
      return Waker{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  std::coroutine_handle<promise_type> h;
};

Waker RecordTag(int tag, std::vector<int>* fired) {
  fired->push_back(tag);
  co_return;
}

class Wakers {
 public:
  Wakers() = default;
  Wakers(const Wakers&) = delete;
  Wakers& operator=(const Wakers&) = delete;
  ~Wakers() {
    for (auto h : frames_) h.destroy();
  }
  std::coroutine_handle<> Make(int tag, std::vector<int>* fired) {
    frames_.push_back(RecordTag(tag, fired).h);
    return frames_.back();
  }

 private:
  std::deque<std::coroutine_handle<Waker::promise_type>> frames_;
};

/// Runs a popped event: resumes a wakeup or invokes a callback.
void Fire(EventHeap::Fired& f) {
  if (f.handle) {
    f.handle.resume();
  } else {
    f.callback.Invoke();
  }
}

constexpr EventId kLaneBit = EventId{1} << 63;

// The share of each operation in a fuzz round; pops take the rest.
struct OpMix {
  double future;    // schedule on the time grid at or after the frontier
  double heap_now;  // heap schedule at the frontier: ScheduleCallback(now)
  double lane_now;  // lane wakeup at the frontier: ScheduleNow
  double cancel;    // cancel a random issued id
  double forge;     // cancel never-issued ids
  int burst;        // lane wakeups issued at once, once early in the round
  // Coverage floors per 800-op round, well below every seed's count.
  int min_advances;       // pops that move the frontier forward
  int min_lane_instants;  // distinct instants that receive lane wakeups
};

// Schedules outnumber pops, so the queue grows deep; no lane traffic.
constexpr OpMix kHeapOnlyMix{0.5, 0.0, 0.0, 0.25, 0.05, 0, 8, 0};

// Fewer events arrive at the frontier (~0.15 per op) than are popped
// (0.5), so after the burst drains the clock keeps advancing and the lane
// keeps emptying and refilling at later instants. The one burst exceeds the
// ring's first capacity, so the ring grows with ids pending across the
// growth, and later cancels pick ids from before it.
constexpr OpMix kLaneMix{0.22, 0.04, 0.08, 0.13, 0.03, 80, 30, 12};

// What a fuzz round covered, so a mix that stalls the clock shows up.
struct RoundStats {
  int advances = 0;       // pops that moved the frontier forward
  int lane_instants = 0;  // distinct instants that received lane wakeups
};

// One fuzz round: interleave future schedules (on a coarse time grid, so
// timestamp ties are common and the FIFO tie-break is actually exercised),
// same-instant heap schedules and same-instant lane wakeups at the current
// frontier, cancels (pending, already-cancelled, already-fired, issued
// before the ring grew or wrapped, and never-issued ids of both kinds), and
// pops, asserting the queue and the reference agree on every observable.
void ModelCheckRound(std::uint64_t seed, int ops, const OpMix& mix,
                     RoundStats* stats) {
  EventHeap heap;
  ReferenceScheduler ref;
  Rng rng(seed);
  std::vector<int> heap_fired;
  Wakers wakers;

  struct Issued {
    EventId id;
    int ref;
  };
  std::vector<Issued> issued;  // every id ever handed out, fired or not
  SimTime frontier = 0;  // pops advance this; schedules stay >= it
  SimTime last_wake_at = -1;
  int next_tag = 0;
  const auto schedule = [&](SimTime at) {
    const int tag = next_tag++;
    const EventId id = heap.PushCallback(
        at, [tag, &heap_fired] { heap_fired.push_back(tag); });
    issued.push_back({id, ref.Schedule(at, tag)});
  };
  const auto wake_now = [&] {
    const int tag = next_tag++;
    const EventId id = heap.PushNow(frontier, wakers.Make(tag, &heap_fired));
    EXPECT_NE(id, 0u);
    issued.push_back({id, ref.Schedule(frontier, tag)});
    if (frontier != last_wake_at) ++stats->lane_instants;
    last_wake_at = frontier;
  };

  const std::int64_t burst_op = rng.UniformInt(0, ops / 8);
  const double heap_now_cut = mix.future + mix.heap_now;
  const double lane_now_cut = heap_now_cut + mix.lane_now;
  const double cancel_cut = lane_now_cut + mix.cancel;
  const double forge_cut = cancel_cut + mix.forge;
  for (int op = 0; op < ops; ++op) {
    const double dice = rng.NextDouble();
    if (op == burst_op && mix.burst > 0) {
      // More same-instant wakeups than the ring's first capacity.
      for (int i = 0; i < mix.burst; ++i) wake_now();
    } else if (dice < mix.future) {
      // Schedule. Grid times force ties; +frontier keeps them schedulable.
      schedule(frontier + 0.25 * static_cast<double>(rng.UniformInt(0, 7)));
    } else if (dice < heap_now_cut) {
      schedule(frontier);  // ScheduleCallback(now) / Delay(0): the heap
    } else if (dice < lane_now_cut) {
      wake_now();  // ScheduleNow: the lane
    } else if (dice < cancel_cut) {
      if (issued.empty()) continue;
      const auto pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(issued.size()) - 1));
      // Cancel outcomes must agree whether the pick is pending, already
      // fired, or already cancelled — and double-cancel must stay a no-op.
      EXPECT_EQ(heap.Cancel(issued[pick].id), ref.Cancel(issued[pick].ref));
      EXPECT_FALSE(heap.Cancel(issued[pick].id));
    } else if (dice < forge_cut) {
      // Forged / never-issued ids of either kind are harmless no-ops.
      EXPECT_FALSE(heap.Cancel(rng.Next() | 1));
      EXPECT_FALSE(heap.Cancel(kLaneBit | (rng.Next() >> 1)));
      EXPECT_FALSE(heap.Cancel(kLaneBit));  // seq 0 is never issued
      EXPECT_FALSE(heap.Cancel(0));
    } else {
      EventHeap::Fired f;
      SimTime ref_at;
      int ref_tag;
      const bool heap_has = heap.PopLive(&f);
      const bool ref_has = ref.Pop(&ref_at, &ref_tag);
      ASSERT_EQ(heap_has, ref_has);
      if (!heap_has) continue;
      const std::size_t before = heap_fired.size();
      Fire(f);
      ASSERT_EQ(heap_fired.size(), before + 1);
      EXPECT_EQ(heap_fired.back(), ref_tag);
      EXPECT_EQ(f.at, ref_at);
      EXPECT_GE(f.at, frontier);
      if (f.at > frontier) ++stats->advances;
      frontier = f.at;
    }
    ASSERT_EQ(heap.live(), ref.live());
    ASSERT_GE(heap.size(), heap.live());
  }

  // Drain both completely; the remaining sequences must match exactly.
  std::vector<std::pair<SimTime, int>> heap_rest;
  std::vector<std::pair<SimTime, int>> ref_rest;
  EventHeap::Fired f;
  while (heap.PopLive(&f)) {
    Fire(f);
    heap_rest.emplace_back(f.at, heap_fired.back());
    f = EventHeap::Fired{};
  }
  SimTime at;
  int tag;
  while (ref.Pop(&at, &tag)) ref_rest.emplace_back(at, tag);
  EXPECT_EQ(heap_rest, ref_rest);
}

TEST(EventHeapModelCheck, RandomInterleavingsMatchReferenceScheduler) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const OpMix* mix : {&kHeapOnlyMix, &kLaneMix}) {
      RoundStats stats;
      ModelCheckRound(seed, 800, *mix, &stats);
      if (HasFatalFailure()) return;
      EXPECT_GE(stats.advances, mix->min_advances) << "seed " << seed;
      EXPECT_GE(stats.lane_instants, mix->min_lane_instants) << "seed " << seed;
    }
  }
}

TEST(EventHeapModelCheck, LaneIdsSurviveRingGrowthAndWrap) {
  EventHeap heap;
  std::vector<int> fired;
  Wakers wakers;
  // Advance the ring's head so later entries wrap past the end.
  std::vector<EventId> early;
  for (int i = 0; i < 40; ++i) {
    early.push_back(heap.PushNow(0.0, wakers.Make(i, &fired)));
  }
  EventHeap::Fired f;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(heap.PopLive(&f));
    Fire(f);
  }
  // 10 pending; 100 more wrap the 64-entry ring and then grow it.
  std::vector<EventId> late;
  for (int i = 40; i < 140; ++i) {
    late.push_back(heap.PushNow(0.0, wakers.Make(i, &fired)));
  }
  // The ring (head at 30) wraps at late[24] and grows at late[54].
  EXPECT_FALSE(heap.Cancel(early[5]));   // fired before the growth
  EXPECT_TRUE(heap.Cancel(early[35]));   // pending across the growth
  EXPECT_FALSE(heap.Cancel(early[35]));  // cancelled twice
  EXPECT_TRUE(heap.Cancel(late[30]));    // issued after the wrap
  EXPECT_TRUE(heap.Cancel(late[80]));    // issued after the growth
  EXPECT_EQ(heap.live(), 107u);
  EXPECT_EQ(heap.size(), 110u);  // tombstones count until popped
  std::vector<int> expect;
  for (int i = 30; i < 140; ++i) {
    if (i != 35 && i != 70 && i != 120) expect.push_back(i);
  }
  fired.clear();
  while (heap.PopLive(&f)) Fire(f);
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(heap.size(), 0u);
  for (EventId id : late) EXPECT_FALSE(heap.Cancel(id));  // all fired
}

TEST(EventHeapModelCheck, HeapEntriesAtTheSameInstantMergeBySeq) {
  // ScheduleCallback(now) / Delay(0) issued before a ScheduleNow fires
  // first; one issued after fires after.
  EventHeap heap;
  std::vector<int> fired;
  Wakers wakers;
  heap.PushCallback(1.0, [&fired] { fired.push_back(0); });
  EventHeap::Fired f;
  ASSERT_TRUE(heap.PopLive(&f));  // the clock is now 1.0
  Fire(f);
  heap.PushCallback(1.0, [&fired] { fired.push_back(1); });
  heap.PushNow(1.0, wakers.Make(2, &fired));
  heap.PushCallback(1.0, [&fired] { fired.push_back(3); });
  heap.PushNow(1.0, wakers.Make(4, &fired));
  heap.PushCallback(2.0, [&fired] { fired.push_back(6); });
  heap.PushCallback(1.0, [&fired] { fired.push_back(5); });
  std::vector<SimTime> times;
  while (heap.PopLive(&f)) {
    times.push_back(f.at);
    Fire(f);
    f = EventHeap::Fired{};
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(times, (std::vector<SimTime>{1.0, 1.0, 1.0, 1.0, 1.0, 2.0}));
}

// The same script of schedules, cancels and pops run twice: once with
// same-instant wakeups through the lane (PushNow) and once through the heap
// (PushHandle at the frontier, the path ScheduleNow took before the lane).
// Every observer the telemetry reads — live(), size(), dead(),
// compactions() — and the pop sequence must agree after every step,
// through cancel-heavy phases that trigger compaction.
TEST(EventHeapModelCheck, LaneMatchesHeapOnlyQueueOnEveryObserver) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EventHeap lane;
    EventHeap plain;
    std::vector<int> lane_fired;
    std::vector<int> plain_fired;
    Wakers wakers;
    Rng rng(seed);
    std::vector<std::pair<EventId, EventId>> issued;
    SimTime frontier = 0;
    int next_tag = 0;
    for (int op = 0; op < 3000; ++op) {
      const double dice = rng.NextDouble();
      // Cancel-heavy phases (cancelling recent ids, so most hit a pending
      // event) alternate with phases that drain the queue.
      const bool cancel_phase = (op / 500) % 2 == 1;
      const double push_cut = 0.3;
      if (dice < push_cut / 2) {
        const SimTime at =
            frontier + 0.25 * static_cast<double>(rng.UniformInt(0, 3));
        const int tag = next_tag++;
        issued.emplace_back(
            lane.PushCallback(at, [tag, &lane_fired] {
              lane_fired.push_back(tag);
            }),
            plain.PushCallback(at, [tag, &plain_fired] {
              plain_fired.push_back(tag);
            }));
      } else if (dice < push_cut) {
        const int tag = next_tag++;
        issued.emplace_back(
            lane.PushNow(frontier, wakers.Make(tag, &lane_fired)),
            plain.PushHandle(frontier, wakers.Make(tag, &plain_fired)));
      } else if (dice < (cancel_phase ? 0.98 : 0.35)) {
        if (issued.empty()) continue;
        const auto n = static_cast<std::int64_t>(issued.size());
        const auto pick = static_cast<std::size_t>(
            rng.UniformInt(std::max<std::int64_t>(0, n - 64), n - 1));
        EXPECT_EQ(lane.Cancel(issued[pick].first),
                  plain.Cancel(issued[pick].second));
      } else {
        SimTime ta = -1;
        SimTime tb = -1;
        ASSERT_EQ(lane.PeekLiveTime(&ta), plain.PeekLiveTime(&tb));
        ASSERT_EQ(ta, tb);
        ASSERT_EQ(lane.size(), plain.size());
        EventHeap::Fired a;
        EventHeap::Fired b;
        const bool has = lane.PopLive(&a);
        ASSERT_EQ(has, plain.PopLive(&b));
        if (has) {
          ASSERT_EQ(a.at, b.at);
          Fire(a);
          Fire(b);
          ASSERT_EQ(lane_fired.back(), plain_fired.back());
          frontier = a.at;
        }
      }
      ASSERT_EQ(lane.live(), plain.live());
      ASSERT_EQ(lane.size(), plain.size());
      ASSERT_EQ(lane.dead(), plain.dead());
      ASSERT_EQ(lane.compactions(), plain.compactions());
    }
    EXPECT_GT(lane.compactions(), 0u) << "seed " << seed;
    EXPECT_EQ(lane_fired, plain_fired);
  }
}

TEST(EventHeapModelCheck, CancelEverythingMatchesReference) {
  // Degenerate profile: cancel-dominated, so compaction fires repeatedly
  // while the reference keeps the ground truth.
  EventHeap heap;
  ReferenceScheduler ref;
  Rng rng(4242);
  std::vector<std::pair<EventId, int>> pend;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) {
      const SimTime at = 1.0 * round + rng.NextDouble();
      pend.emplace_back(heap.PushCallback(at, [&fired] { ++fired; }),
                        ref.Schedule(at, 0));
    }
    for (std::size_t i = 0; i < pend.size(); ++i) {
      if (rng.Bernoulli(0.9)) {
        EXPECT_EQ(heap.Cancel(pend[i].first), ref.Cancel(pend[i].second));
      }
    }
    pend.clear();
    ASSERT_EQ(heap.live(), ref.live());
  }
  EventHeap::Fired f;
  int heap_pops = 0;
  SimTime prev = 0;
  while (heap.PopLive(&f)) {
    EXPECT_GE(f.at, prev);
    prev = f.at;
    f.callback.Invoke();
    ++heap_pops;
  }
  EXPECT_EQ(static_cast<std::size_t>(heap_pops), ref.live());
  EXPECT_EQ(fired, heap_pops);
}

// --- The near/far boundary -------------------------------------------------

// EventHeap and the reference driven in lockstep. Every step compares the
// queue's four observers — live(), size(), dead(), compactions() — and every
// pop compares PeekLiveTime, the fired event and its time.
class Lockstep {
 public:
  SimTime frontier() const { return frontier_; }
  std::size_t issued() const { return issued_.size(); }
  std::size_t live() const { return heap_.live(); }
  std::uint64_t compactions() const { return heap_.compactions(); }

  // A callback at `at` (>= frontier()): enters one of the two tiers.
  void Schedule(SimTime at) {
    const int tag = next_tag_++;
    const EventId id =
        heap_.PushCallback(at, [tag, this] { fired_.push_back(tag); });
    issued_.push_back({id, ref_.Schedule(at, tag)});
    CheckObservers();
  }

  // A same-instant wakeup at the frontier: enters the lane.
  void WakeNow() {
    const int tag = next_tag_++;
    const EventId id = heap_.PushNow(frontier_, wakers_.Make(tag, &fired_));
    issued_.push_back({id, ref_.Schedule(frontier_, tag)});
    CheckObservers();
  }

  // Cancels the i-th issued id (pending, fired or already cancelled).
  void Cancel(std::size_t i) {
    EXPECT_EQ(heap_.Cancel(issued_[i].id), ref_.Cancel(issued_[i].ref))
        << "issued #" << i;
    EXPECT_FALSE(heap_.Cancel(issued_[i].id));
    CheckObservers();
  }

  // Peeks, then pops and fires the earliest live event on both sides.
  // Returns false once both are empty.
  bool Pop() {
    SimTime peek = -1;
    SimTime ref_peek = -1;
    const bool has = heap_.PeekLiveTime(&peek);
    EXPECT_EQ(has, ref_.Peek(&ref_peek));
    CheckObservers();
    EventHeap::Fired f;
    SimTime ref_at = -1;
    int ref_tag = -1;
    EXPECT_EQ(heap_.PopLive(&f), has);
    EXPECT_EQ(ref_.Pop(&ref_at, &ref_tag), has);
    if (!has) return false;
    EXPECT_EQ(peek, ref_peek);
    EXPECT_EQ(f.at, ref_at);
    EXPECT_EQ(f.at, peek);
    EXPECT_GE(f.at, frontier_);
    frontier_ = f.at;
    const std::size_t before = fired_.size();
    Fire(f);
    EXPECT_EQ(fired_.size(), before + 1);
    if (fired_.size() == before + 1) {
      EXPECT_EQ(fired_.back(), ref_tag);
    }
    CheckObservers();
    return true;
  }

  void Drain() {
    while (Pop() && !::testing::Test::HasFailure()) {
    }
  }

 private:
  void CheckObservers() {
    EXPECT_EQ(heap_.live(), ref_.live());
    EXPECT_EQ(heap_.size(), ref_.size());
    EXPECT_EQ(heap_.dead(), ref_.dead());
    EXPECT_EQ(heap_.compactions(), ref_.compactions());
  }

  struct Issued {
    EventId id;
    int ref;
  };
  Wakers wakers_;
  EventHeap heap_;
  ReferenceScheduler ref_;
  std::vector<int> fired_;
  std::vector<Issued> issued_;
  SimTime frontier_ = 0;
  int next_tag_ = 0;
};

// The boundary step by step. Pushes into an empty queue fill the near tier;
// once it is full, a push goes to the heap unless it is earlier than near's
// latest entry, which then moves to the heap.
TEST(EventHeapModelCheck, NearFarBoundaryScript) {
  constexpr std::size_t kNear = EventHeap::kNearCapacity;
  Lockstep q;
  // Equal timestamps split across the tiers: the first kNear entries at 2.0
  // fill near, the next 8 go to the heap behind them.
  for (std::size_t i = 0; i < kNear + 8; ++i) q.Schedule(2.0);
  // Near evictions: each push at 1.0 moves near's latest 2.0 entry to the
  // heap, ahead of the 2.0 entries already there.
  for (int i = 0; i < 4; ++i) q.Schedule(1.0);
  // Cancels in both tiers: a near entry at 2.0, an evicted one, a heap one
  // pushed there directly, and a near entry at 1.0.
  q.Cancel(0);
  q.Cancel(kNear - 1);
  q.Cancel(kNear + 3);
  q.Cancel(kNear + 8);
  // A lane tie against the near front: at 1.0, the wakeup follows the 1.0
  // entries queued before it and precedes the one queued after it.
  ASSERT_TRUE(q.Pop());
  EXPECT_EQ(q.frontier(), 1.0);
  q.WakeNow();
  q.Schedule(1.0);
  q.WakeNow();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Pop());
  EXPECT_EQ(q.frontier(), 1.0);
  // Into 2.0: a lane tie against the near front, then, once the near entries
  // are gone, against the heap front. A push at the heap top's time while
  // near is empty goes to the heap, behind the entries already there.
  ASSERT_TRUE(q.Pop());
  EXPECT_EQ(q.frontier(), 2.0);
  q.WakeNow();
  for (std::size_t i = 0; i < kNear; ++i) ASSERT_TRUE(q.Pop());
  q.WakeNow();
  q.Schedule(2.0);
  q.WakeNow();
  q.Schedule(3.0);
  q.Drain();
  EXPECT_EQ(q.live(), 0u);

  // A compaction with both tiers populated: without pops, near stays full
  // and the heap holds the rest, so cancelling two of every three entries
  // compacts both.
  Lockstep c;
  const SimTime kTimes[] = {3, 1, 4, 1, 5, 9, 2, 6};
  for (std::size_t i = 0; i < 3 * kNear; ++i) {
    c.Schedule(kTimes[i % 8] + 0.5 * static_cast<double>(i % 3));
  }
  for (std::size_t i = 0; i < c.issued() && c.compactions() == 0; ++i) {
    if (i % 3 != 2) c.Cancel(i);
  }
  EXPECT_EQ(c.compactions(), 1u);
  for (std::size_t i = 2; i < c.issued(); i += 6) c.Cancel(i);
  c.Drain();
}

// Random draws whose pending count crosses the near tier's capacity again
// and again: a phase that grows the queue past it, a cancel-heavy phase that
// compacts both tiers, another growth phase and a drain below it. Times sit
// on a coarse grid, so equal timestamps land in both tiers; lane wakeups and
// tier entries at the frontier tie against either tier's front.
TEST(EventHeapModelCheck, NearFarBoundaryMatchesReference) {
  struct Phase {
    double schedule;  // share of schedules; pops take what cancels leave
    double cancel;
  };
  constexpr Phase kPhases[] = {{0.7, 0.05}, {0.1, 0.85}, {0.7, 0.05},
                               {0.1, 0.05}};
  constexpr int kPhaseOps = 250;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Lockstep q;
    Rng rng(seed);
    int crossings = 0;
    bool above = false;
    for (int op = 0; op < 8 * kPhaseOps && !HasFailure(); ++op) {
      const Phase& phase = kPhases[(op / kPhaseOps) % 4];
      const double dice = rng.NextDouble();
      if (dice < phase.schedule) {
        const double kind = rng.NextDouble();
        if (kind < 0.15) {
          q.WakeNow();
        } else if (kind < 0.3) {
          q.Schedule(q.frontier());
        } else {
          q.Schedule(q.frontier() +
                     0.25 * static_cast<double>(rng.UniformInt(1, 7)));
        }
      } else if (dice < phase.schedule + phase.cancel) {
        if (q.issued() == 0) continue;
        // Mostly recent ids, so most cancels hit a pending entry.
        const auto n = static_cast<std::int64_t>(q.issued());
        q.Cancel(static_cast<std::size_t>(
            rng.UniformInt(std::max<std::int64_t>(0, n - 160), n - 1)));
      } else {
        q.Pop();
      }
      const bool now_above = q.live() > EventHeap::kNearCapacity;
      if (now_above && !above) ++crossings;
      above = now_above;
    }
    q.Drain();
    EXPECT_GE(crossings, 2) << "seed " << seed;
    EXPECT_GE(q.compactions(), 2u) << "seed " << seed;
  }
}

// --- Tombstone bound (the cancel-heavy memory regression test) --------------

TEST(EventHeapBound, CancelHeavyQueueStaysWithinTwiceLive) {
  // Continuously schedule 4, cancel 3 — the pattern of every timeout racing
  // a completion. Without compaction the heap would grow by 3 tombstones per
  // fired event forever; the bound asserts it tracks the live population.
  Simulation sim;
  Rng rng(7);
  std::uint64_t fired = 0;
  std::size_t max_size = 0;
  std::vector<EventId> batch;
  for (int i = 0; i < 50000; ++i) {
    batch.clear();
    for (int k = 0; k < 4; ++k) {
      batch.push_back(sim.ScheduleCallback(sim.now() + rng.Uniform(0.001, 2.0),
                                           [&fired] { ++fired; }));
    }
    for (int k = 0; k < 3; ++k) sim.Cancel(batch[static_cast<std::size_t>(k)]);
    if (i % 16 == 0) sim.Run(4);  // interleave pops with the churn
    // Invariant from event_heap.h: dead <= size/2 once size >= the
    // compaction floor, i.e. size <= 2*live + floor slack.
    max_size = std::max(max_size, sim.event_queue_size());
    ASSERT_LE(sim.event_queue_size(), 2 * sim.live_events() + 64);
  }
  const std::size_t live_at_peak = sim.live_events();
  sim.Run();
  EXPECT_EQ(sim.live_events(), 0u);
  EXPECT_GT(sim.queue_compactions(), 0u);
  // The whole run issued 200k events; the queue never held more than ~2x the
  // live window (live_at_peak <= ~12.5k schedulable at any moment).
  EXPECT_LE(max_size, 2 * live_at_peak + 2 * 4096);
}

// --- InlineFunction behavior (the slot payload type) ------------------------

struct InstanceCounter {
  int* live;
  explicit InstanceCounter(int* l) : live(l) { ++*live; }
  InstanceCounter(const InstanceCounter& o) : live(o.live) { ++*live; }
  InstanceCounter(InstanceCounter&& o) noexcept : live(o.live) { ++*live; }
  ~InstanceCounter() { --*live; }
};

TEST(InlineFunction, ResetAndDestructionReleaseTheCallable) {
  int live = 0;
  {
    util::InlineFunction<int()> fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    InstanceCounter c(&live);
    fn = [c] { return 42; };
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_EQ(fn(), 42);
    fn.Reset();
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_EQ(live, 1);  // only the local copy remains
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineFunction, MoveRelocatesSmallAndBoxedCallables) {
  int live = 0;
  InstanceCounter c(&live);
  // Small: fits the 48-byte buffer.
  util::InlineFunction<int(int)> small = [c](int x) { return x + 1; };
  // Large: 64 bytes of captures forces the boxed fallback.
  struct Big {
    double pad[8];
  } big{{1, 2, 3, 4, 5, 6, 7, 8}};
  util::InlineFunction<int(int)> boxed = [c, big](int x) {
    return x + static_cast<int>(big.pad[7]);
  };

  util::InlineFunction<int(int)> small2 = std::move(small);
  util::InlineFunction<int(int)> boxed2 = std::move(boxed);
  EXPECT_FALSE(static_cast<bool>(small));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(boxed));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(small2(1), 2);
  EXPECT_EQ(boxed2(1), 9);

  small2 = std::move(boxed2);  // cross-assign: destroys old target
  EXPECT_EQ(small2(2), 10);
  small2.Reset();
  boxed2.Reset();
  EXPECT_EQ(live, 1);  // every stored copy destroyed; the local survives
}

TEST(InlineFunction, TriviallyCopyableCallableKeepsCapturesThroughMoves) {
  // Fills the whole 48-byte buffer, so every move must carry every byte.
  std::uint64_t out[6] = {};
  const std::uint64_t a = 0x0123456789abcdefULL;
  const std::uint64_t b = 0xfedcba9876543210ULL;
  const std::uint64_t c = 3;
  const std::uint64_t d = 4;
  const double e = 2.5;
  std::uint64_t* dst = out;
  auto fn = [a, b, c, d, e, dst] {
    dst[0] = a;
    dst[1] = b;
    dst[2] = c;
    dst[3] = d;
    dst[4] = static_cast<std::uint64_t>(e * 2);
    dst[5] = 6;
  };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  static_assert(sizeof(fn) == util::InlineFunction<void()>::kInlineBytes);
  util::InlineFunction<void()> f1 = fn;
  util::InlineFunction<void()> f2 = std::move(f1);  // move-construct
  util::InlineFunction<void()> f3 = [] {};
  f3 = std::move(f2);  // move-assign over a trivial target
  EXPECT_FALSE(static_cast<bool>(f1));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(f2));  // NOLINT(bugprone-use-after-move)
  f3();
  const std::uint64_t want[6] = {a, b, c, d, 5, 6};
  EXPECT_TRUE(std::equal(out, out + 6, want));

  // A trip through the event queue: stored in a slot, moved out by PopLive.
  std::fill(out, out + 6, 0);
  EventHeap heap;
  heap.PushCallback(0.0, [] {});  // occupies a slot ahead of `fn`
  heap.PushCallback(1.0, fn);
  EventHeap::Fired fired;
  ASSERT_TRUE(heap.PopLive(&fired));
  fired.callback.Invoke();
  EventHeap::Fired fired2;
  ASSERT_TRUE(heap.PopLive(&fired2));
  EXPECT_EQ(fired2.at, 1.0);
  fired2.callback.Invoke();
  EXPECT_TRUE(std::equal(out, out + 6, want));
}

TEST(InlineFunction, ReassignmentDestroysPreviousTarget) {
  int live = 0;
  util::InlineFunction<void()> fn;
  {
    InstanceCounter a(&live);
    fn = [a] {};
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 1);
  {
    InstanceCounter b(&live);
    fn = [b] {};  // the first callable is destroyed before b is stored
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 1);
  fn.Reset();
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace psoodb::sim
