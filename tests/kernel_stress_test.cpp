// Stress/edge tests for the simulation kernel beyond the basics in
// sim_test.cpp: cancellation storms, notify/wait interleavings, future
// teardown, CPU preemption chains, and FIFO-server statistics windows.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "resources/cpu.h"
#include "resources/fifo_server.h"
#include "sim/awaitables.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace psoodb::sim {
namespace {

TEST(CancellationStress, RandomCancelStormLeavesQueueConsistent) {
  Simulation sim;
  Rng rng(99);
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(
        sim.ScheduleCallback(rng.Uniform(0, 100), [&fired] { ++fired; }));
  }
  int cancelled = 0;
  for (EventId id : ids) {
    if (rng.Bernoulli(0.5)) {
      sim.Cancel(id);
      ++cancelled;
    }
  }
  sim.Run();
  EXPECT_EQ(fired, 2000 - cancelled);
  // Double-cancel and cancel-after-fire are harmless.
  for (EventId id : ids) sim.Cancel(id);
}

Task DelayThenCount(Simulation& sim, double dt, int* count) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await sim.Delay(dt);
  ++*count;
}

TEST(CancellationStress, TeardownWithThousandsOfPendingDelays) {
  int count = 0;
  {
    Simulation sim;
    for (int i = 0; i < 5000; ++i) {
      sim.Spawn(DelayThenCount(sim, 1000.0 + i, &count));
    }
    sim.RunUntil(10.0);  // nothing due yet
  }
  EXPECT_EQ(count, 0);
}

Task WaitAndRewait(CondVar& cv, int* wakeups) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  for (int i = 0; i < 3; ++i) {
    co_await cv.Wait();
    ++*wakeups;
  }
}

TEST(CondVarStress, RepeatedNotifyAllWakesEveryWaiterEveryRound) {
  Simulation sim;
  CondVar cv(sim);
  int wakeups = 0;
  for (int i = 0; i < 10; ++i) sim.Spawn(WaitAndRewait(cv, &wakeups));
  sim.Run();
  for (int round = 0; round < 3; ++round) {
    cv.NotifyAll();
    sim.Run();
  }
  EXPECT_EQ(wakeups, 30);
  EXPECT_EQ(cv.waiters(), 0u);
}

TEST(CondVarStress, NotifyOneIsExactlyOne) {
  Simulation sim;
  CondVar cv(sim);
  int wakeups = 0;
  for (int i = 0; i < 5; ++i) sim.Spawn(WaitAndRewait(cv, &wakeups));
  sim.Run();
  cv.NotifyOne();
  sim.Run();
  EXPECT_EQ(wakeups, 1);
  EXPECT_EQ(cv.waiters(), 5u);  // the woken one re-waited
}

Task ConsumeFuture(Future<int> f, int* out) {
  *out = co_await std::move(f);
}

TEST(FutureEdge, SetBeforeAndAfterAwaitAcrossManyChannels) {
  Simulation sim;
  std::vector<int> got(100, -1);
  std::vector<Promise<int>> promises;
  for (int i = 0; i < 100; ++i) promises.emplace_back(sim);
  // Half set before the consumer awaits, half after.
  for (int i = 0; i < 50; ++i) promises[i].Set(i);
  for (int i = 0; i < 100; ++i) {
    sim.Spawn(ConsumeFuture(promises[i].GetFuture(), &got[i]));
  }
  sim.Run();
  for (int i = 50; i < 100; ++i) promises[i].Set(i);
  sim.Run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
}

TEST(FutureEdge, AbandonedConsumerIsSafe) {
  // The consumer's frame dies before the promise is set; Set() must not
  // resume anything dangling.
  auto sim = std::make_unique<Simulation>();
  Promise<int> p(*sim);
  int never = -1;
  sim->Spawn(ConsumeFuture(p.GetFuture(), &never));
  sim->Run();
  sim.reset();  // destroys the waiting consumer
  p.Set(42);    // nobody is listening; must be a no-op
  EXPECT_EQ(never, -1);
}

Task SysJob(resources::Cpu& cpu, double inst, std::vector<int>* order,
            int id) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await cpu.System(inst);
  order->push_back(id);
}

Task UsrJob(resources::Cpu& cpu, double inst, std::vector<int>* order,
            int id) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await cpu.User(inst);
  order->push_back(id);
}

TEST(CpuStress, AlternatingPreemptionPreservesSystemFifo) {
  Simulation sim;
  resources::Cpu cpu(sim, 1);  // 1e6 inst/s
  std::vector<int> order;
  sim.Spawn(UsrJob(cpu, 10e6, &order, 100));  // 10s of user work
  // System jobs arrive every second; each takes 0.5s; FIFO among them.
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleCallback(1.0 + i, [&sim, &cpu, &order, i] {
      sim.Spawn(SysJob(cpu, 0.5e6, &order, i));
    });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);  // system jobs in order
  EXPECT_EQ(order[5], 100);  // preempted user job finishes last
  // User job: 10s of work + 2.5s of preemption = 12.5s.
  EXPECT_NEAR(sim.now(), 12.5, 1e-6);
}

TEST(CpuStress, ManyTinyJobsAllComplete) {
  Simulation sim;
  resources::Cpu cpu(sim, 15);
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    sim.Spawn(UsrJob(cpu, 1 + (i % 97), &order, i));  // tiny residuals
  }
  sim.Run();
  EXPECT_EQ(order.size(), 500u);
  EXPECT_EQ(cpu.active_jobs(), 0);
}

Task Serve(resources::FifoServer& s, double t, int* done) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await s.Serve(t);
  ++*done;
}

TEST(FifoServerStress, UtilizationWindowResetMidService) {
  Simulation sim;
  resources::FifoServer server(sim);
  int done = 0;
  sim.Spawn(Serve(server, 10.0, &done));
  sim.RunUntil(5.0);
  server.ResetStats();  // halfway through the only service
  sim.RunUntil(20.0);
  // Busy 5..10 within window 5..20: utilization = 5/15.
  EXPECT_NEAR(server.Utilization(), 5.0 / 15.0, 1e-9);
  EXPECT_EQ(done, 1);
}

TEST(FifoServerStress, ZeroLengthServiceCompletes) {
  Simulation sim;
  resources::FifoServer server(sim);
  int done = 0;
  sim.Spawn(Serve(server, 0.0, &done));
  sim.Run();
  EXPECT_EQ(done, 1);
}

}  // namespace
}  // namespace psoodb::sim
