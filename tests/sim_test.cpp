// Unit tests for the discrete-event simulation kernel: clock/event ordering,
// cancellation, task composition, condition variables, futures, wait groups,
// and mid-run teardown safety.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/awaitables.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace psoodb::sim {
namespace {

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulationTest, CallbacksFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleCallback(3.0, [&] { order.push_back(3); });
  sim.ScheduleCallback(1.0, [&] { order.push_back(1); });
  sim.ScheduleCallback(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulationTest, EqualTimestampsFireFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleCallback(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.ScheduleCallback(1.0, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelStaleIdIsNoop) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.ScheduleCallback(1.0, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  sim.Cancel(id);    // already fired
  sim.Cancel(0);     // never valid
  sim.Cancel(9999);  // never scheduled
}

TEST(SimulationTest, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  std::vector<double> at;
  sim.ScheduleCallback(1.0, [&] { at.push_back(1.0); });
  sim.ScheduleCallback(2.0, [&] { at.push_back(2.0); });
  sim.ScheduleCallback(3.0, [&] { at.push_back(3.0); });
  sim.RunUntil(2.0);
  EXPECT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.Run();
  EXPECT_EQ(at.size(), 3u);
}

TEST(SimulationTest, RunUntilAdvancesClockOnEmptyQueue) {
  Simulation sim;
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulationTest, RunMaxEventsLimitsWork) {
  Simulation sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleCallback(static_cast<double>(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.Run(4), 4u);
  EXPECT_EQ(count, 4);
}

Task DelayChain(Simulation& sim, std::vector<double>* log) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await sim.Delay(1.0);
  log->push_back(sim.now());
  co_await sim.Delay(2.5);
  log->push_back(sim.now());
}

TEST(TaskTest, DelaysAdvanceClock) {
  Simulation sim;
  std::vector<double> log;
  sim.Spawn(DelayChain(sim, &log));
  sim.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 3.5);
  EXPECT_EQ(sim.live_processes(), 0u);
}

Task Child(Simulation& sim, std::vector<std::string>* log) {
  log->push_back("child-start");
  co_await sim.Delay(1.0);
  log->push_back("child-end");
}

Task Parent(Simulation& sim, std::vector<std::string>* log) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  log->push_back("parent-start");
  co_await Child(sim, log);
  log->push_back("parent-end");
}

TEST(TaskTest, NestedTasksRunToCompletionInOrder) {
  Simulation sim;
  std::vector<std::string> log;
  sim.Spawn(Parent(sim, &log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-end"}));
}

Task Forever(Simulation& sim, int* iterations) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  for (;;) {
    co_await sim.Delay(1.0);
    ++(*iterations);
  }
}

TEST(TaskTest, TeardownMidRunDestroysProcessesSafely) {
  int iterations = 0;
  {
    Simulation sim;
    sim.Spawn(Forever(sim, &iterations));
    sim.Spawn(Forever(sim, &iterations));
    sim.RunUntil(10.0);
    EXPECT_EQ(sim.live_processes(), 2u);
  }  // destructor must clean both infinite processes without firing them
  EXPECT_EQ(iterations, 20);
}

Task ParentOfForever(Simulation& sim, int* iterations) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await Forever(sim, iterations);  // never completes
}

TEST(TaskTest, TeardownDestroysNestedChildren) {
  int iterations = 0;
  {
    Simulation sim;
    sim.Spawn(ParentOfForever(sim, &iterations));
    sim.RunUntil(5.0);
  }
  EXPECT_EQ(iterations, 5);
}

/// Sets `*flag` when destroyed.
struct SetOnDestroy {
  bool* flag;
  ~SetOnDestroy() { *flag = true; }
};

/// Takes one step, ends aborted, and never takes the second.
Task Aborter(Simulation& sim, int* steps, bool* local_destroyed) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  SetOnDestroy local{local_destroyed};
  co_await sim.Delay(1.0);
  ++*steps;
  co_await EndAborted();
  ++*steps;
}

Task Finisher(Simulation& sim, int* steps) {
  co_await sim.Delay(1.0);
  ++*steps;
}

Task AbortParent(Simulation& sim, std::vector<int>* log) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  int steps = 0;
  bool destroyed = false;
  const bool finished_aborted = co_await Finisher(sim, &steps);
  const bool aborted = co_await Aborter(sim, &steps, &destroyed);
  // The aborted child's locals are gone before the parent goes on.
  log->insert(log->end(), {finished_aborted, aborted, steps, destroyed});
}

TEST(TaskTest, AbortIsReturnedToTheAwaitingParent) {
  Simulation sim;
  std::vector<int> log;
  sim.Spawn(AbortParent(sim, &log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{false, true, 2, true}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.live_processes(), 0u);
}

Task Thrower(Simulation& sim) {
  co_await sim.Delay(1.0);
  throw std::runtime_error("boom");
}

Task AwaitThrower(Simulation& sim) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await Thrower(sim);
}

// Tasks carry no exception: one escaping a task's body terminates the
// process, even with an awaiting parent there to take it, and so does an
// abort in a detached process, which has no awaiter.
TEST(TaskDeathTest, ExceptionOrAbortWithNoAwaiterTerminates) {
  EXPECT_DEATH(
      {
        Simulation sim;
        sim.Spawn(AwaitThrower(sim));
        sim.Run();
      },
      "");
  EXPECT_DEATH(
      {
        Simulation sim;
        int steps = 0;
        bool destroyed = false;
        sim.Spawn(Aborter(sim, &steps, &destroyed));
        sim.Run();
      },
      "");
}

Task Waiter(CondVar& cv, std::vector<int>* log, int id) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await cv.Wait();
  log->push_back(id);
}

TEST(CondVarTest, NotifyOneWakesInFifoOrder) {
  Simulation sim;
  CondVar cv(sim);
  std::vector<int> log;
  for (int i = 0; i < 3; ++i) sim.Spawn(Waiter(cv, &log, i));
  sim.Run();
  EXPECT_EQ(cv.waiters(), 3u);
  EXPECT_TRUE(cv.NotifyOne());
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{0}));
  cv.NotifyAll();
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(cv.NotifyOne());
}

TEST(CondVarTest, NotifyDoesNotResumeInline) {
  Simulation sim;
  CondVar cv(sim);
  std::vector<int> log;
  sim.Spawn(Waiter(cv, &log, 7));
  sim.Run();
  cv.NotifyOne();
  EXPECT_TRUE(log.empty());  // wakeup is scheduled, not inline
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{7}));
}

Task AwaitFuture(Future<int> f, std::vector<int>* log) {
  int v = co_await std::move(f);
  log->push_back(v);
}

TEST(FutureTest, DeliversValueSetBeforeAwait) {
  Simulation sim;
  Promise<int> p(sim);
  p.Set(42);
  std::vector<int> log;
  sim.Spawn(AwaitFuture(p.GetFuture(), &log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{42}));
}

TEST(FutureTest, DeliversValueSetAfterAwait) {
  Simulation sim;
  Promise<int> p(sim);
  std::vector<int> log;
  sim.Spawn(AwaitFuture(p.GetFuture(), &log));
  sim.Run();
  EXPECT_TRUE(log.empty());
  p.Set(7);
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{7}));
}

// Property-style sweep: N delayed processes always all complete, regardless
// of interleaving, and the event count matches expectations.
class SpawnSweepTest : public ::testing::TestWithParam<int> {};

Task CountDown(Simulation& sim, int hops, int* completed) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  for (int i = 0; i < hops; ++i) co_await sim.Delay(0.5);
  ++(*completed);
}

TEST_P(SpawnSweepTest, AllProcessesComplete) {
  const int n = GetParam();
  Simulation sim;
  int completed = 0;
  for (int i = 0; i < n; ++i) sim.Spawn(CountDown(sim, 1 + i % 5, &completed));
  sim.Run();
  EXPECT_EQ(completed, n);
  EXPECT_EQ(sim.live_processes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpawnSweepTest,
                         ::testing::Values(1, 2, 7, 64, 512));

}  // namespace
}  // namespace psoodb::sim
