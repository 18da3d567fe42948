// Allocation regression tests for the model's per-event and per-transaction
// paths. This executable replaces the global operator new with a counting
// one, then checks that steady-state work allocates nothing once warmed up:
//   - CPU completions: K tasks issuing User/System requests, so a container
//     built per completion shows up;
//   - a client's transaction footprint: LocalTxnLocks Clear / Record /
//     Grant / Revoke / ReleasePins / Clear cycles over a fixed footprint,
//     so a table that allocates per transaction shows up;
//   - transaction generation into a client's reused reference string;
//   - CondVar / Promise hand-offs, where every event is a same-instant
//     wakeup through the event queue's lane;
//   - a small closure posted, merged and fired between two partitions;
//   - the request-path tables on util::Slab: LRU insert-with-eviction over
//     a full cache, lock acquire / wait / ReleaseAll cycles, copy-table
//     register / HoldersExcept / unregister, and the detector's wait edges
//     and wait channels;
//   - a deadlock abort: the acquire that closes the cycle ends aborted, a
//     returned outcome with nothing to allocate;
//   - a Database whose layout was never swapped: its one allocation is the
//     version store's block index, a small fraction of a dense per-object
//     array, and the first commit to a block allocates that block only;
//   - the tracer's event ring, allocated at its capacity once, and its
//     per-transaction phase table, which keeps its block across erases.
// Every task is spawned before counting starts: under AddressSanitizer
// sim/pool.h passes coroutine frames through to operator new, and frame
// allocation is not what these tests measure. The lock-manager and deadlock
// cases have to create coroutines while counting (each acquire is one), so
// they run only where the frame pool is on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cc/copy_table.h"
#include "cc/deadlock_detector.h"
#include "cc/local_locks.h"
#include "cc/lock_manager.h"
#include "config/params.h"
#include "resources/cpu.h"
#include "sim/awaitables.h"
#include "sim/pool.h"
#include "sim/shard.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "storage/buffer_manager.h"
#include "storage/database.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace {
std::uint64_t g_news = 0;       // operator new calls since process start
std::uint64_t g_new_bytes = 0;  // bytes they asked for
}  // namespace

// Kept out of line: inlined into a delete-expression, GCC would pair the
// free() with the new-expression and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_news;
  g_new_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
// The array forms go through the counting operator new, as the default ones
// do; AddressSanitizer's runtime brings array forms that would bypass it.
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace psoodb {
namespace {

/// operator new calls made, and bytes asked for, since construction.
class NewCounter {
 public:
  std::uint64_t count() const { return g_news - start_; }
  std::uint64_t bytes() const { return g_new_bytes - start_bytes_; }

 private:
  std::uint64_t start_ = g_news;
  std::uint64_t start_bytes_ = g_new_bytes;
};

sim::Task Requester(resources::Cpu& cpu, int n, double inst, bool system) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  for (int i = 0; i < n; ++i) {
    // Varied user costs keep several processor-sharing jobs in flight with
    // different remaining work, so completions interleave with arrivals.
    if (system) {
      co_await cpu.System(inst);
    } else {
      co_await cpu.User(inst * (1 + i % 3));
    }
  }
}

TEST(AllocationFree, CpuCompletionsAfterWarmup) {
  constexpr int kTasks = 8;
  constexpr int kRequests = 400;
  sim::Simulation sim;
  resources::Cpu cpu(sim, /*mips=*/10);
  for (int k = 0; k < kTasks; ++k) {
    sim.Spawn(Requester(cpu, kRequests, 1000.0 + 250.0 * k, k % 4 == 0));
  }
  sim.Run(/*max_events=*/2000);  // warmup: the event heap reaches its size
  const NewCounter news;
  const std::uint64_t events = sim.Run();
  const std::uint64_t allocations = news.count();
  EXPECT_GT(events, 4000u);
  EXPECT_EQ(cpu.active_jobs(), 0);
  EXPECT_EQ(allocations, 0u) << "over " << events << " events";
}

// A hand-off round: the setter fulfils promise i, then waits on the CondVar
// that the getter notifies once it has the value.
sim::Task Setter(sim::CondVar& cv, std::vector<sim::Promise<int>>& promises) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  for (sim::Promise<int>& p : promises) {
    p.Set(1);
    co_await cv.Wait();
  }
}

sim::Task Getter(sim::CondVar& cv, std::vector<sim::Future<int>>& futures, int* sum) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  for (sim::Future<int>& f : futures) {
    *sum += co_await f;
    cv.NotifyOne();
  }
}

TEST(AllocationFree, WakeupOnlyPingPongAfterWarmup) {
  constexpr int kRounds = 3000;
  sim::Simulation sim;
  sim::CondVar cv(sim);
  // The channels exist before counting: what is measured is the wakeups.
  std::vector<sim::Promise<int>> promises;
  std::vector<sim::Future<int>> futures;
  promises.reserve(kRounds);
  futures.reserve(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    promises.emplace_back(sim);
    futures.push_back(promises.back().GetFuture());
  }
  int sum = 0;
  sim.Spawn(Getter(cv, futures, &sum));
  sim.Spawn(Setter(cv, promises));
  sim.Run(/*max_events=*/200);  // warmup: the wakeup lane reaches its size
  const NewCounter news;
  const std::uint64_t events = sim.Run();
  const std::uint64_t allocations = news.count();
  EXPECT_EQ(sum, kRounds);
  EXPECT_GT(events, 5000u);
  EXPECT_EQ(allocations, 0u) << "over " << events << " events";
}

// A closure bouncing between two partitions: each firing posts the next hop
// to the other partition one lookahead later. It fits the event queue's
// inline buffer, so only the cross-partition path could box it.
struct Bounce {
  sim::ShardGroup* group;
  int at;  ///< the partition it fires in
  int* hops;
  void operator()() const {
    ++*hops;
    group->Post(at, 1 - at, group->sim(at).now() + group->lookahead(),
                Bounce{group, 1 - at, hops});
  }
};

TEST(AllocationFree, CrossPartitionPostMergeAndFireAfterWarmup) {
  constexpr std::uint64_t kWarmupWindows = 50;
  constexpr std::uint64_t kCountedWindows = 500;
  // One worker thread: the windows and their serial phases run on this
  // thread, so the counter is read between windows without a race.
  sim::ShardGroup group(/*partitions=*/2, /*threads=*/1, /*lookahead=*/1e-3);
  int hops = 0;
  group.sim(0).ScheduleCallback(0.0, Bounce{&group, 0, &hops});
  std::uint64_t start = 0;
  std::uint64_t allocations = 0;
  int counted_hops = 0;
  group.Run([&](sim::ShardGroup& g) {
    if (g.windows() == kWarmupWindows) {
      start = g_news;
      counted_hops = -hops;
    }
    if (g.windows() < kWarmupWindows + kCountedWindows) return false;
    allocations = g_news - start;
    counted_hops += hops;
    return true;
  });
  EXPECT_GT(counted_hops, 200);
  EXPECT_EQ(allocations, 0u) << "over " << counted_hops << " hops";
}

TEST(AllocationFree, LocalTxnLocksCycleAfterFirst) {
  const storage::ObjectLayout layout(/*num_pages=*/100,
                                     /*objects_per_page=*/20);
  cc::LocalTxnLocks locks(layout);
  // A fixed footprint of 120 objects, four on each of 30 pages, a fifth of
  // them written, with page and object write permissions granted, some
  // revoked, and the pins released twice as an abort does.
  const auto cycle = [&locks, &layout] {
    locks.Clear();
    for (int i = 0; i < 120; ++i) {
      const storage::PageId page = static_cast<storage::PageId>(i % 30);
      const storage::ObjectId oid = layout.ObjectAt(page, i / 30);
      if (i % 5 == 0) {
        locks.RecordWrite(oid);
        locks.GrantPageWrite(page);
        locks.GrantObjectWrite(oid);
      } else {
        locks.RecordRead(oid);
      }
    }
    for (storage::PageId p = 0; p < 30; p += 2) locks.RevokePageWrite(p);
    locks.ReleasePins();
    locks.ReleasePins();
    locks.Clear();
  };
  cycle();  // the first cycle grows the table
  const NewCounter news;
  for (int r = 0; r < 20; ++r) cycle();
  EXPECT_EQ(news.count(), 0u);
}

TEST(AllocationFree, TransactionGenerationIntoAReusedString) {
  const config::SystemParams sys;
  config::WorkloadParams clustered =
      config::MakeHicon(sys, config::Locality::kHigh, 0.2);
  clustered.pattern = config::AccessPattern::kClustered;
  const config::WorkloadParams workloads[] = {
      config::MakeHotCold(sys, config::Locality::kLow, 0.2),
      config::MakePrivate(sys, 0.2), clustered};
  for (const config::WorkloadParams& w : workloads) {
    workload::TransactionSource src(w, sys, /*client=*/0, /*seed=*/42);
    // A fresh string, as a client's loop starts with: the first transaction
    // sizes it for the largest one, and no later transaction regrows it.
    workload::ReferenceString refs;
    const NewCounter news;
    for (int t = 0; t < 200; ++t) src.NextTransaction(refs);
    EXPECT_EQ(news.count(), 1u);
    EXPECT_FALSE(refs.empty());
  }
}

TEST(AllocationFree, LruInsertWithEvictionOverAFullCache) {
  storage::PageCache cache(64);
  storage::PageId next = 0;
  // Each cycle inserts 64 new pages into the full cache (64 evictions),
  // re-reads the newest half and pins / unpins one page.
  const auto cycle = [&cache, &next] {
    for (int i = 0; i < 64; ++i) {
      auto r = cache.Insert(next++);
      r.value->dirty = 1;
    }
    for (storage::PageId p = next - 32; p < next; ++p) {
      if (cache.Get(p) == nullptr) std::abort();
    }
    cache.Pin(next - 1);
    cache.Unpin(next - 1);
  };
  cycle();  // the first cycle fills the cache
  const NewCounter news;
  for (int r = 0; r < 20; ++r) cycle();
  EXPECT_EQ(news.count(), 0u);
  EXPECT_EQ(cache.size(), 64u);
}

sim::Task LockTxn(cc::LockManager& lm, storage::TxnId txn, int base) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  for (int i = 0; i < 12; ++i) {
    const storage::PageId page = base + 3 * i;
    co_await lm.AcquirePageX(page, txn, 0);
    co_await lm.AcquireObjectX(storage::ObjectId{1000} + page, page + 1, txn,
                               0);
    co_await lm.WaitPageFree(page + 2, txn);  // free: no entry
    co_await lm.WaitObjectFree(storage::ObjectId{5000} + page, page, txn);
  }
}

TEST(AllocationFree, LockManagerAcquireWaitReleaseAllCycles) {
#if defined(PSOODB_SIM_POOL_PASSTHROUGH)
  GTEST_SKIP() << "coroutine frames bypass the pool under AddressSanitizer";
#endif
  sim::Simulation sim;
  cc::DeadlockDetector detector;
  cc::LockManager lm(sim, detector);
  storage::TxnId txn = 1;
  // Two transactions over the same 12 pages and objects: the second waits
  // on the first's first page (a wait edge, a wait channel, a wakeup), then
  // takes everything once the first releases.
  const auto cycle = [&] {
    const storage::TxnId a = txn++;
    const storage::TxnId b = txn++;
    sim.Spawn(LockTxn(lm, a, 0));
    sim.Spawn(LockTxn(lm, b, 0));
    sim.Run();
    if (lm.ReleaseAll(a) != 24) std::abort();
    sim.Run();
    if (lm.ReleaseAll(b) != 24) std::abort();
  };
  cycle();  // the first cycle grows the tables
  cycle();
  const NewCounter news;
  for (int r = 0; r < 20; ++r) cycle();
  EXPECT_EQ(news.count(), 0u);
  EXPECT_EQ(lm.lock_waits(), 22u);
  EXPECT_TRUE(lm.CheckCoherence().empty());
}

/// Takes `first`, then waits for `second`. An aborted acquire releases what
/// the transaction holds, as a server's abort handler does.
sim::Task CrossLockTxn(sim::Simulation& sim, cc::LockManager& lm,
                       storage::TxnId txn, storage::PageId first,
                       storage::PageId second, int* aborts) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  // The first acquire is uncontested.
  if (const bool aborted = co_await lm.AcquirePageX(first, txn, 0); aborted) {
    std::abort();
  }
  co_await sim.Delay(1.0);  // let the other transaction take its first page
  if (const bool aborted = co_await lm.AcquirePageX(second, txn, 0); aborted) {
    ++*aborts;
    lm.ReleaseAll(txn);
  }
}

TEST(AllocationFree, DeadlockAbortAfterWarmup) {
#if defined(PSOODB_SIM_POOL_PASSTHROUGH)
  GTEST_SKIP() << "coroutine frames bypass the pool under AddressSanitizer";
#endif
  sim::Simulation sim;
  cc::DeadlockDetector detector;
  cc::LockManager lm(sim, detector);
  storage::TxnId txn = 1;
  int aborts = 0;
  // Two transactions take one page each, then each waits for the other's:
  // the second wait closes the cycle, that acquire ends aborted (a wait
  // edge rolled back, a lock_abort wait recorded) and its transaction
  // releases, which grants the first its second page.
  const auto cycle = [&] {
    const storage::TxnId a = txn++;
    const storage::TxnId b = txn++;
    sim.Spawn(CrossLockTxn(sim, lm, a, 1, 2, &aborts));
    sim.Spawn(CrossLockTxn(sim, lm, b, 2, 1, &aborts));
    sim.Run();
    if (lm.ReleaseAll(a) != 2) std::abort();
  };
  cycle();  // the first cycles grow the tables
  cycle();
  const NewCounter news;
  for (int r = 0; r < 20; ++r) cycle();
  EXPECT_EQ(news.count(), 0u);
  EXPECT_EQ(aborts, 22);
  EXPECT_EQ(detector.deadlocks_detected(), 22u);
  EXPECT_EQ(lm.lock_waits(), 44u);
  EXPECT_TRUE(lm.CheckCoherence().empty());
}

TEST(AllocationFree, CopyTableRegisterHoldersUnregisterCycles) {
  cc::PageCopyTable table;
  std::uint64_t seen = 0;
  // Six holders per item (past the lists' inline capacity), a callback-
  // style walk of the others, then every copy dropped; items change every
  // cycle, so the slab's slots and lists are recycled across items.
  const auto cycle = [&table, &seen](storage::PageId first) {
    for (storage::PageId p = first; p < first + 16; ++p) {
      for (storage::ClientId c = 0; c < 6; ++c) table.Register(p, c);
      for (const auto& h : table.HoldersExcept(p, 2)) {
        seen += h.epoch;
      }
      for (storage::ClientId c = 0; c < 6; ++c) {
        if (c % 2 == 0) {
          table.Unregister(p, c);
        } else {
          table.UnregisterIfEpoch(p, c, table.HoldersExcept(p, -1)[0].epoch);
        }
      }
    }
  };
  cycle(0);
  const NewCounter news;
  for (int r = 1; r <= 20; ++r) cycle(r * 100);
  EXPECT_EQ(news.count(), 0u);
  EXPECT_EQ(table.items_tracked(), 0u);
  EXPECT_GT(seen, 0u);
}

TEST(AllocationFree, DetectorWaitsAndWaitChannelsCycles) {
  sim::Simulation sim;
  sim::CondVar cv(sim);
  cc::DeadlockDetector detector;
  storage::TxnId base = 1;
  // A waits-for chain of 20 transactions, each parked on a channel, then
  // unwound: ClearWaits, channel unregistration, RemoveTxn.
  const auto cycle = [&] {
    for (storage::TxnId t = base; t < base + 20; ++t) {
      detector.RegisterWaitChannel(t, &cv);
      if (detector.OnWait(t, {t + 1})) std::abort();  // a chain, no cycle
    }
    if (detector.HasCycleFrom(base)) std::abort();
    for (storage::TxnId t = base; t < base + 20; t += 2) {
      detector.ClearWaits(t);
      detector.UnregisterWaitChannel(t, &cv);
    }
    for (storage::TxnId t = base; t < base + 21; ++t) detector.RemoveTxn(t);
    base += 21;
  };
  cycle();
  const NewCounter news;
  for (int r = 0; r < 20; ++r) cycle();
  EXPECT_EQ(news.count(), 0u);
  EXPECT_EQ(detector.edge_count(), 0u);
  EXPECT_EQ(detector.parked(), 0u);
}

TEST(AllocationFree, UnswappedDatabaseAllocatesOnlyItsVersions) {
  const NewCounter news;
  storage::Database db(100000, 20);
  EXPECT_EQ(news.count(), 1u);
  // A dense store would hold 8 bytes for each of the 2,000,000 objects
  // (16 MB); the block index is at most 1/32 of that.
  EXPECT_LE(news.bytes(), 2000000 * sizeof(storage::Version) / 32);
  EXPECT_EQ(db.layout().PageOf(db.layout().num_objects() - 1), 99999);
  // The first commit to a block allocates exactly that block of 64
  // versions; the next commit to the same block allocates nothing.
  const NewCounter first;
  EXPECT_EQ(db.CommitWrite(1999999), 1u);
  EXPECT_EQ(first.count(), 1u);
  EXPECT_EQ(first.bytes(), 64 * sizeof(storage::Version));
  const NewCounter again;
  EXPECT_EQ(db.CommitWrite(1999936), 1u);
  EXPECT_EQ(db.committed_version(1999999), 1u);
  EXPECT_EQ(again.count(), 0u);
}

TEST(AllocationFree, TraceRingFillsWithoutAllocating) {
  sim::Simulation sim;
  constexpr std::size_t kCapacity = 3 * 4096 + 5;
  trace::Tracer tracer(sim, kCapacity, /*page_filter=*/-1);
  const NewCounter news;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    tracer.Emit(trace::EventKind::kMsgSend, 1, 7, 3,
                static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(news.count(), 0u);
  const auto events = tracer.Events();
  EXPECT_EQ(events[0].size() + events[1].size(), kCapacity);
  EXPECT_EQ(tracer.events_dropped(), 0u);
  tracer.Emit(trace::EventKind::kMsgRecv, 2, 7);  // wraps: drops the oldest
  EXPECT_EQ(tracer.events_dropped(), 1u);
  EXPECT_EQ(news.count(), 0u);
}

TEST(AllocationFree, PhaseAttributionAfterWarmup) {
  sim::Simulation sim;
  trace::Tracer tracer(sim, 16, /*page_filter=*/-1);
  std::uint64_t txn = 1;
  double server = 0;
  // 64 transactions in flight, each attributed server-side phases, read
  // back, and taken at its end; every cycle uses new txn ids.
  const auto cycle = [&] {
    const std::uint64_t first = txn;
    for (; txn < first + 64; ++txn) {
      tracer.Attribute(txn, trace::Phase::kServerCpu, 1e-3);
      tracer.Attribute(txn, trace::Phase::kDisk, 2e-3);
      tracer.Attribute(txn, trace::Phase::kClientCpu, 5e-4);
      server += tracer.ServerAttributed(txn);
    }
    for (std::uint64_t t = first; t < txn; ++t) {
      const trace::Breakdown b = tracer.TakePhases(t);
      if (b.phase[static_cast<int>(trace::Phase::kDisk)] != 2e-3) std::abort();
    }
  };
  cycle();  // the first cycle grows the table
  const NewCounter news;
  for (int r = 0; r < 20; ++r) cycle();
  EXPECT_EQ(news.count(), 0u);
  EXPECT_EQ(tracer.ServerAttributed(1), 0.0);  // taken
  EXPECT_GT(server, 0.0);
}

}  // namespace
}  // namespace psoodb
