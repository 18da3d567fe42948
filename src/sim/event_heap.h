/// \file event_heap.h
/// The simulator's event queue: a small sorted near tier in front of an
/// index-tracked 4-ary min-heap, with in-place tombstones, slot-encoded event
/// ids, and small-buffer-optimized callback storage, plus a slot-free FIFO
/// lane for same-instant wakeups.
///
/// Design (see docs/SIMULATOR.md "Scheduler internals"):
///
///  - Entries are 24 bytes — (time, seq, slot, flags) — so every move is of
///    cache-line-sized PODs instead of the 64-byte `std::function`-bearing
///    records the old `std::priority_queue` carried.
///  - Two tiers hold the entries. The near tier is a sorted array of at most
///    kNearCapacity entries with the earliest at the back, so the next event
///    pops with no sift. The far tier is a 4-ary min-heap (half the depth of
///    a binary heap, two extra comparisons per level) holding the rest.
///    Invariant: every near entry precedes every far entry in (time, seq)
///    order, so the queue's front is near's back, or the heap top when near
///    is empty. A push carries the largest seq yet, so it precedes exactly
///    the entries with a later time: it enters near if near has room and it
///    is earlier than the heap top, or if near is full and it is earlier than
///    near's latest entry (which then moves to the heap). Every other push
///    goes to the heap. Inside near a push scans from the early end, because
///    most new events (CPU and FIFO completions) precede the pending ones.
///  - Event payloads (a coroutine handle, or a callable in small-buffer
///    storage) live in a *slot* side table addressed by the entry's slot
///    index. Slots are chunked so they never move; each stores its entry's
///    current position, tagged with its tier and maintained by every move,
///    which makes cancellation O(1): flag the entry dead in place, destroy
///    the payload, free the slot. No hash lookup anywhere — the old kernel
///    paid an `unordered_set` find+erase per pop and per cancel.
///  - An `EventId` encodes (generation << 32 | slot index). Generations bump
///    when a slot is freed, so cancelling a stale, fired, or never-issued id
///    is a harmless no-op — the guarantee all awaitable destructors rely on.
///  - Dead (tombstoned) entries stay in place in either tier until they
///    reach the front, but a dead counter triggers compaction when more than
///    half the queue is dead, so timeout-heavy workloads (every fired event
///    racing a cancelled timer) keep the queue bounded by ~2x the live event
///    count.
///  - Same-instant coroutine wakeups (`PushNow`, about half of all events)
///    bypass both tiers: a FIFO ring of (seq, handle) with no slot, no
///    generation and no sift. Every lane entry is at the current instant
///    and the clock cannot advance past it, so popping the lane front
///    unless the queue's front is at the same time with a smaller seq is the
///    exact (time, seq) merge. Lane ids are `kLaneTag | seq`; cancelling
///    one tombstones the entry in place (found by binary search, since lane
///    seqs increase front to back).
///
/// Determinism: pops are ordered by (time, seq) with seq assigned in
/// schedule order across both tiers and the lane — exact FIFO tie-break at
/// equal timestamps, identical to the old kernel. Slot reuse is LIFO and
/// single-threaded, so ids and all queue states are a pure function of the
/// schedule/cancel sequence. The tiers change where an entry waits, never
/// when it leaves: a tombstone leaves when it is the queue's front, as in a
/// heap-only queue. Near, heap and lane entries and their tombstones all
/// count toward `live()`, `size()` and the compaction rule, so those
/// observers read the same values as a heap-only queue.

#ifndef PSOODB_SIM_EVENT_HEAP_H_
#define PSOODB_SIM_EVENT_HEAP_H_

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/inline_function.h"

namespace psoodb::sim {

/// Simulated time, in seconds.
using SimTime = double;

/// Identifier of a scheduled event; 0 is never a valid id.
using EventId = std::uint64_t;

namespace detail {

/// Event payload storage: type-erased move-only callable; callables up to 48
/// bytes that are nothrow-move-constructible are stored inline (no
/// allocation — the `ScheduleCallback` satellite fix), larger ones fall back
/// to a single heap allocation. See util/inline_function.h.
using EventCallback = psoodb::util::InlineFunction<void(), 48>;

}  // namespace detail

/// Move-only `void()` callable with 48-byte inline storage: the allocation-
/// free replacement for `std::function<void()>` wherever small callables are
/// stored at high rates (event payloads, deferred client actions).
using InlineFunction = detail::EventCallback;

/// The cancellable event queue. Single-threaded; owned by Simulation.
class EventHeap {
 public:
  /// Near-tier capacity. On perfbench's workloads a push finds 6.2 queued
  /// entries on average on hicon_contended (18 at most), 4.6 on
  /// private_cached (9) and 12.1 per partition on scaled_partitioned, so 32
  /// entries hold the whole queue nearly always: only the 2000-client cold
  /// start (582 entries at its peak) sends pushes to the heap, 1.1% of
  /// them. A push moves 1.2, 1.9 and 2.6 entries on average there, a push
  /// into the full tier at most 31, and 32 x 24 bytes is twelve cache
  /// lines. A tier with no heap behind it would make every push linear in
  /// the queue depth.
  static constexpr std::size_t kNearCapacity = 32;

  // The lane's ring is allocated up front: allocated at the first wakeup,
  // in the middle of a run's setup, it raised peak RSS by ~0.9 MB on a
  // traced run (allocator placement).
  EventHeap() : lane_(kLaneInitialCapacity) {}
  EventHeap(const EventHeap&) = delete;
  EventHeap& operator=(const EventHeap&) = delete;
  ~EventHeap() { Clear(); }

  /// Schedules a coroutine resumption. `at` ties broken FIFO.
  EventId PushHandle(SimTime at, std::coroutine_handle<> h) {
    const std::uint32_t slot = AllocSlot();
    Slot& s = SlotAt(slot);
    s.kind = Slot::kHandle;
    s.handle = h;
    return PushEntry(at, slot, s.gen);
  }

  /// Schedules a callable. Small callables are stored inline in the slot;
  /// an EventCallback (a cross-partition message's payload) moves in as it
  /// is, since wrapping one in another would box it.
  template <typename F>
  EventId PushCallback(SimTime at, F&& fn) {
    const std::uint32_t slot = AllocSlot();
    Slot& s = SlotAt(slot);
    s.kind = Slot::kCallback;
    if constexpr (std::is_same_v<std::decay_t<F>, detail::EventCallback>) {
      s.cb = std::forward<F>(fn);
    } else {
      s.cb.Emplace(std::forward<F>(fn));
    }
    return PushEntry(at, slot, s.gen);
  }

  /// Schedules a coroutine resumption at `now`, the current instant, after
  /// everything already queued for it. Goes to the lane: no slot, no sift.
  /// `now` must not precede any queued time, and must not change while
  /// the lane holds entries (Simulation guarantees both).
  EventId PushNow(SimTime now, std::coroutine_handle<> h) {
    PSOODB_DCHECK(lane_size_ == 0 || now == lane_time_,
                  "same-instant lane spans two instants");
    if (lane_size_ == lane_.size()) GrowLane();
    lane_time_ = now;
    const std::uint64_t seq = ++last_seq_;
    LaneAt(lane_size_) = LaneEntry{seq, h};
    ++lane_size_;
    ++live_;
    return kLaneTag | seq;
  }

  /// Cancels a pending event: O(1) tombstone write plus payload teardown
  /// (O(log lane) for a lane id). Safe for stale / fired / zero ids.
  /// Returns true if an event was live.
  bool Cancel(EventId id) {
    if ((id & kLaneTag) != 0) return CancelLane(id & ~kLaneTag);
    const std::uint32_t slot = static_cast<std::uint32_t>(id);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slot_count_) return false;
    Slot& s = SlotAt(slot);
    if (s.kind == Slot::kFree || s.gen != gen) return false;
    Entry& e = (s.heap_index & kNearTag) != 0 ? near_[s.heap_index & ~kNearTag]
                                              : heap_[s.heap_index];
    PSOODB_DCHECK(e.slot == slot && (e.flags & kDead) == 0,
                  "event heap index desync");
    e.flags |= kDead;
    ++dead_;
    --live_;
    if (s.kind == Slot::kCallback) s.cb.Reset();
    FreeSlot(slot, s);
    MaybeCompact();
    return true;
  }

  /// An event extracted by PopLive. Exactly one of handle/callback is set;
  /// its slot or lane entry is already released, so the payload may
  /// reschedule or cancel anything (including its own now-stale id) while
  /// running.
  struct Fired {
    SimTime at = 0;
    std::coroutine_handle<> handle;
    detail::EventCallback callback;
  };

  /// Extracts the earliest live event. Returns false if none remain.
  bool PopLive(Fired* out) {
    for (;;) {
      if (LaneFirst()) {
        const LaneEntry e = PopLane();
        if (!e.handle) {
          --dead_;
          continue;
        }
        --live_;
        out->at = lane_time_;
        out->handle = e.handle;
        return true;
      }
      const Entry* front = Front();
      if (front == nullptr) return false;
      const Entry top = *front;
      RemoveTop();
      if (top.flags & kDead) {
        --dead_;
        continue;
      }
      Slot& s = SlotAt(top.slot);
      out->at = top.at;
      if (s.kind == Slot::kHandle) {
        out->handle = s.handle;
      } else {
        out->handle = {};
        out->callback = std::move(s.cb);
      }
      FreeSlot(top.slot, s);
      return true;
    }
  }

  /// Time of the earliest live event (purging dead entries from the front).
  bool PeekLiveTime(SimTime* at) {
    for (;;) {
      if (LaneFirst()) {
        if (!LaneAt(0).handle) {
          PopLane();
          --dead_;
          continue;
        }
        *at = lane_time_;
        return true;
      }
      const Entry* front = Front();
      if (front == nullptr) return false;
      if (front->flags & kDead) {
        RemoveTop();
        --dead_;
        continue;
      }
      *at = front->at;
      return true;
    }
  }

  /// Destroys every pending payload without running it and resets the heap.
  /// Pending ids become stale (Cancel remains a no-op on them).
  void Clear() {
    for (std::uint32_t i = 0; i < slot_count_; ++i) {
      Slot& s = SlotAt(i);
      if (s.kind == Slot::kCallback) s.cb.Reset();
      s.kind = Slot::kFree;
    }
    chunks_.clear();
    near_size_ = 0;
    heap_.clear();
    lane_head_ = 0;
    lane_size_ = 0;
    slot_count_ = 0;
    live_ = 0;
    dead_ = 0;
    free_head_ = kNoSlot;
  }

  bool empty() const { return live_ == 0; }
  /// Live (schedulable) events.
  std::size_t live() const { return live_; }
  /// Queued entries (both tiers and the lane) including tombstones — what
  /// the memory bound tracks.
  std::size_t size() const { return near_size_ + heap_.size() + lane_size_; }
  std::size_t dead() const { return dead_; }
  std::uint64_t compactions() const { return compactions_; }

 private:
  static constexpr std::uint32_t kDead = 1;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Marks a lane id. Slot generations stay below 2^31 (FreeSlot), so a
  /// slot id never has this bit, and 0 stays invalid for both kinds.
  static constexpr EventId kLaneTag = EventId{1} << 63;
  static constexpr std::uint32_t kMaxGen = 0x7fffffffu;
  /// Tags a slot's position as a near-tier index. Heap indexes stay below
  /// 2^31 (that many 24-byte entries would take 48 GB).
  static constexpr std::uint32_t kNearTag = 1u << 31;
  static constexpr std::size_t kLaneInitialCapacity = 64;
  static constexpr std::size_t kCompactMin = 64;
  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t flags;
  };
  // The whole point of the rebuild: sift ops move small PODs. Growing this
  // record is a kernel-wide perf regression; think twice.
  static_assert(sizeof(Entry) == 24, "event record must stay 3 words");
  static_assert(std::is_trivially_copyable_v<Entry>);

  /// A same-instant wakeup; a null handle is a cancelled entry (tombstone).
  struct LaneEntry {
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };

  struct Slot {
    enum Kind : std::uint8_t { kFree, kHandle, kCallback };
    std::uint32_t gen = 1;  // never 0: forged/stale ids can't match
    std::uint32_t heap_index = 0;  // heap index, or kNearTag | near index
    std::uint32_t next_free = kNoSlot;
    Kind kind = kFree;
    std::coroutine_handle<> handle;
    detail::EventCallback cb;
  };

  Slot& SlotAt(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  std::uint32_t AllocSlot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t i = free_head_;
      free_head_ = SlotAt(i).next_free;
      return i;
    }
    if ((slot_count_ >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(1u << kChunkShift));
    }
    return slot_count_++;
  }

  void FreeSlot(std::uint32_t i, Slot& s) {
    // Invalidate outstanding ids; wrap within 31 bits (see kLaneTag).
    s.gen = s.gen == kMaxGen ? 1 : s.gen + 1;
    s.kind = Slot::kFree;
    s.handle = {};
    s.next_free = free_head_;
    free_head_ = i;
  }

  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  LaneEntry& LaneAt(std::size_t i) {
    return lane_[(lane_head_ + i) & (lane_.size() - 1)];
  }

  /// The queue's front: near's back, or the heap top when near is empty.
  /// Null when both tiers are empty.
  const Entry* Front() const {
    if (near_size_ != 0) return &near_[near_size_ - 1];
    return heap_.empty() ? nullptr : &heap_[0];
  }

  /// True when the lane front precedes the queue's front in (time, seq)
  /// order. Every queued time is >= the lane's instant, so the front goes
  /// first only with an entry at that same instant and a smaller seq.
  bool LaneFirst() {
    if (lane_size_ == 0) return false;
    const Entry* front = Front();
    return front == nullptr ||
           !(front->at == lane_time_ && front->seq < LaneAt(0).seq);
  }

  LaneEntry PopLane() {
    const LaneEntry e = lane_[lane_head_];
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
    return e;
  }

  /// Doubles the ring (power-of-two capacity), unwrapping it to index 0.
  void GrowLane() {
    std::vector<LaneEntry> grown(2 * lane_.size());
    for (std::size_t i = 0; i < lane_size_; ++i) grown[i] = LaneAt(i);
    lane_.swap(grown);
    lane_head_ = 0;
  }

  bool CancelLane(std::uint64_t seq) {
    // Lane seqs increase front to back (tombstones keep theirs).
    std::size_t lo = 0;
    std::size_t hi = lane_size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (LaneAt(mid).seq < seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == lane_size_) return false;
    LaneEntry& e = LaneAt(lo);
    if (e.seq != seq || !e.handle) return false;
    e.handle = {};
    ++dead_;
    --live_;
    MaybeCompact();
    return true;
  }

  /// Compacts when over half the queue is tombstones, so cancel-heavy runs
  /// (timeouts racing completions) keep it bounded by ~2x live.
  void MaybeCompact() {
    if (dead_ > size() / 2 && size() >= kCompactMin) Compact();
  }

  /// Writes `e` at near position `i`, maintaining the slot's back-index.
  /// Dead entries reference freed (possibly reused) slots and must never
  /// write through them.
  void PlaceNear(std::size_t i, const Entry& e) {
    near_[i] = e;
    if ((e.flags & kDead) == 0) {
      SlotAt(e.slot).heap_index = kNearTag | static_cast<std::uint32_t>(i);
    }
  }

  /// Writes `e` at heap position `i`, maintaining the slot's back-index.
  /// Dead entries reference freed (possibly reused) slots and must never
  /// write through them.
  void PlaceAt(std::size_t i, const Entry& e) {
    heap_[i] = e;
    if ((e.flags & kDead) == 0) {
      SlotAt(e.slot).heap_index = static_cast<std::uint32_t>(i);
    }
  }

  void SiftUp(std::size_t i, const Entry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!Earlier(e, heap_[parent])) break;
      PlaceAt(i, heap_[parent]);
      i = parent;
    }
    PlaceAt(i, e);
  }

  void SiftDown(std::size_t i, const Entry& e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], e)) break;
      PlaceAt(i, heap_[best]);
      i = best;
    }
    PlaceAt(i, e);
  }

  /// Queues a new entry. It carries the largest seq yet, so it precedes
  /// exactly the entries with a later time; the tier it enters keeps every
  /// near entry ahead of every heap entry.
  EventId PushEntry(SimTime at, std::uint32_t slot, std::uint32_t gen) {
    const Entry e{at, ++last_seq_, slot, 0};
    if (near_size_ < kNearCapacity) {
      if (heap_.empty() || at < heap_[0].at) {
        InsertNear(e);
      } else {
        PushHeap(e);
      }
    } else if (at < near_[0].at) {
      ReplaceLatestNear(e);
    } else {
      PushHeap(e);
    }
    ++live_;
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// Inserts `e` into near, which has room, scanning from the early end:
  /// each entry whose time is not later than `e`'s precedes it (smaller
  /// seq) and moves one place toward the back.
  void InsertNear(const Entry& e) {
    std::size_t i = near_size_++;
    while (i > 0 && near_[i - 1].at <= e.at) {
      PlaceNear(i, near_[i - 1]);
      --i;
    }
    PlaceNear(i, e);
  }

  /// Full near, `e` earlier than near's latest entry: that entry moves to
  /// the heap, where it becomes the top (it precedes every heap entry), and
  /// `e` takes a place among the rest, scanning from the late end.
  void ReplaceLatestNear(const Entry& e) {
    PushHeap(near_[0]);
    std::size_t i = 0;
    while (i + 1 < kNearCapacity && e.at < near_[i + 1].at) {
      PlaceNear(i, near_[i + 1]);
      ++i;
    }
    PlaceNear(i, e);
  }

  void PushHeap(const Entry& e) {
    heap_.emplace_back();  // space for the sift; value written by PlaceAt
    SiftUp(heap_.size() - 1, e);
  }

  /// Removes the queue's front entry; the heap sifts only when near is
  /// empty.
  void RemoveTop() {
    if (near_size_ != 0) {
      if ((near_[--near_size_].flags & kDead) == 0) --live_;
      return;
    }
    if ((heap_[0].flags & kDead) == 0) --live_;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0, last);
  }

  /// Drops every tombstone (both tiers and the lane), keeping near's order
  /// and re-heapifying the heap (Floyd, bottom-up), then rebuilds the slot
  /// back-indexes. O(n) with n = live entries.
  void Compact() {
    std::size_t lw = 0;
    for (std::size_t r = 0; r < lane_size_; ++r) {
      if (LaneAt(r).handle) LaneAt(lw++) = LaneAt(r);
    }
    lane_size_ = lw;
    std::size_t nw = 0;
    for (std::size_t r = 0; r < near_size_; ++r) {
      if ((near_[r].flags & kDead) == 0) PlaceNear(nw++, near_[r]);
    }
    near_size_ = nw;
    std::size_t w = 0;
    for (std::size_t r = 0; r < heap_.size(); ++r) {
      if ((heap_[r].flags & kDead) == 0) heap_[w++] = heap_[r];
    }
    heap_.resize(w);
    dead_ = 0;
    ++compactions_;
    if (w > 1) {
      for (std::size_t i = (w - 2) >> 2; i != static_cast<std::size_t>(-1);
           --i) {
        const Entry e = heap_[i];  // copy: SiftDown writes through heap_[i]
        SiftDown(i, e);
      }
    }
    for (std::size_t i = 0; i < w; ++i) {
      SlotAt(heap_[i].slot).heap_index = static_cast<std::uint32_t>(i);
    }
  }

  /// The near tier: near_size_ entries sorted latest first, so near_[0] is
  /// the latest and the back is the queue's front. Every entry precedes
  /// every heap_ entry.
  std::array<Entry, kNearCapacity> near_{};
  std::size_t near_size_ = 0;
  /// The far tier: a 4-ary min-heap.
  std::vector<Entry> heap_;
  /// Same-instant ring: lane_size_ entries from lane_head_, all at
  /// lane_time_; lane_.size() is a power of two.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  SimTime lane_time_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace psoodb::sim

#endif  // PSOODB_SIM_EVENT_HEAP_H_
