// Tests for the physical resource models: two-level-priority CPU (FIFO system
// over processor-sharing user), FIFO disks, and the FIFO network.

#include <gtest/gtest.h>

#include <coroutine>
#include <memory>
#include <optional>
#include <vector>

#include "resources/cpu.h"
#include "resources/disk.h"
#include "resources/fifo_server.h"
#include "resources/network.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace psoodb::resources {
namespace {

using sim::Simulation;
using sim::Task;

Task UserJob(Cpu& cpu, double inst, double* done_at, Simulation& sim) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await cpu.User(inst);
  *done_at = sim.now();
}

Task SystemJob(Cpu& cpu, double inst, double* done_at, Simulation& sim) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await cpu.System(inst);
  *done_at = sim.now();
}

TEST(CpuTest, SingleUserJobTakesInstructionsOverRate) {
  Simulation sim;
  Cpu cpu(sim, /*mips=*/10);  // 1e7 inst/sec
  double done = -1;
  sim.Spawn(UserJob(cpu, 1e7, &done, sim));
  sim.Run();
  EXPECT_NEAR(done, 1.0, 1e-9);
}

TEST(CpuTest, TwoEqualUserJobsShareProcessor) {
  Simulation sim;
  Cpu cpu(sim, 10);
  double a = -1, b = -1;
  sim.Spawn(UserJob(cpu, 1e7, &a, sim));
  sim.Spawn(UserJob(cpu, 1e7, &b, sim));
  sim.Run();
  // Each gets half the rate: both finish at 2s.
  EXPECT_NEAR(a, 2.0, 1e-9);
  EXPECT_NEAR(b, 2.0, 1e-9);
}

TEST(CpuTest, ProcessorSharingShortJobFinishesFirst) {
  Simulation sim;
  Cpu cpu(sim, 10);
  double small = -1, large = -1;
  sim.Spawn(UserJob(cpu, 1e7, &small, sim));   // 1s alone
  sim.Spawn(UserJob(cpu, 3e7, &large, sim));   // 3s alone
  sim.Run();
  // Shared until small has done 1e7 at rate/2: t=2. Then large has 2e7 left
  // at full rate: finishes at 2+2=4.
  EXPECT_NEAR(small, 2.0, 1e-9);
  EXPECT_NEAR(large, 4.0, 1e-9);
}

TEST(CpuTest, SystemJobsAreFifoNotShared) {
  Simulation sim;
  Cpu cpu(sim, 10);
  double a = -1, b = -1;
  sim.Spawn(SystemJob(cpu, 1e7, &a, sim));
  sim.Spawn(SystemJob(cpu, 1e7, &b, sim));
  sim.Run();
  EXPECT_NEAR(a, 1.0, 1e-9);
  EXPECT_NEAR(b, 2.0, 1e-9);
}

TEST(CpuTest, SystemPreemptsUser) {
  Simulation sim;
  Cpu cpu(sim, 10);
  double user_done = -1, sys_done = -1;
  sim.Spawn(UserJob(cpu, 2e7, &user_done, sim));  // 2s alone
  sim.ScheduleCallback(1.0, [&] {
    sim.Spawn(SystemJob(cpu, 1e7, &sys_done, sim));
  });
  sim.Run();
  // User runs 0..1 (half done), system runs 1..2, user resumes 2..3.
  EXPECT_NEAR(sys_done, 2.0, 1e-9);
  EXPECT_NEAR(user_done, 3.0, 1e-9);
}

TEST(CpuTest, ZeroInstructionRequestCompletesWithoutSuspension) {
  Simulation sim;
  Cpu cpu(sim, 10);
  double done = -1;
  sim.Spawn(UserJob(cpu, 0, &done, sim));
  EXPECT_NEAR(done, 0.0, 1e-12);  // completed during Spawn
  sim.Run();
}

TEST(CpuTest, UtilizationTracksBusyFraction) {
  Simulation sim;
  Cpu cpu(sim, 10);
  double done = -1;
  sim.Spawn(UserJob(cpu, 1e7, &done, sim));  // busy 0..1
  sim.RunUntil(4.0);
  EXPECT_NEAR(cpu.Utilization(), 0.25, 1e-9);
}

TEST(CpuTest, ResetStatsStartsFreshWindow) {
  Simulation sim;
  Cpu cpu(sim, 10);
  double done = -1;
  sim.Spawn(UserJob(cpu, 1e7, &done, sim));
  sim.RunUntil(1.0);
  cpu.ResetStats();
  sim.RunUntil(2.0);
  EXPECT_NEAR(cpu.Utilization(), 0.0, 1e-9);
  EXPECT_EQ(cpu.user_requests(), 0u);
}

TEST(CpuTest, ManyJobsConserveWork) {
  // Total busy time must equal total instructions / rate when the CPU is
  // saturated, regardless of the system/user mix.
  Simulation sim;
  Cpu cpu(sim, 10);
  std::vector<double> done(20, -1);
  double total_inst = 0;
  for (int i = 0; i < 20; ++i) {
    double inst = 1e6 * (i + 1);
    total_inst += inst;
    if (i % 3 == 0) {
      sim.Spawn(SystemJob(cpu, inst, &done[i], sim));
    } else {
      sim.Spawn(UserJob(cpu, inst, &done[i], sim));
    }
  }
  sim.Run();
  double last = 0;
  for (double d : done) {
    EXPECT_GE(d, 0);
    last = std::max(last, d);
  }
  EXPECT_NEAR(last, total_inst / 1e7, 1e-6);
}

// A script whose job set changes five times, pinned by its exact completion
// instants and event count. Every change supersedes the pending completion,
// which still fires at its old instant and does nothing; a completion that
// wrongly acted would wake a job early (OnCompletion forces the due job
// when none has drained), and a dropped one would lose an event.
TEST(CpuTest, PinnedScriptWithPreemptionAndQueuedSystemJobs) {
  Simulation sim;
  Cpu cpu(sim, 10);  // 1e7 inst/sec
  double u1 = -1, u2 = -1, s1 = -1, s2 = -1, s3 = -1;
  sim.Spawn(UserJob(cpu, 2e7, &u1, sim));
  sim.Spawn(UserJob(cpu, 0.5e7, &u2, sim));
  // At 0.5 a system job preempts both users, with a second queued behind
  // it; at 1.0 a third queues behind the running one.
  sim.ScheduleCallback(0.5, [&] {
    sim.Spawn(SystemJob(cpu, 1e7, &s1, sim));
    sim.Spawn(SystemJob(cpu, 0.5e7, &s2, sim));
  });
  sim.ScheduleCallback(1.0, [&] {
    sim.Spawn(SystemJob(cpu, 0.25e7, &s3, sim));
  });
  sim.Run();
  // The users share 0..0.5; the system jobs run 0.5..2.25 in FIFO order;
  // the users share again until u2's last 0.25e7 drains, then u1 runs
  // alone.
  EXPECT_EQ(s1, 1.5);
  EXPECT_EQ(s2, 2.0);
  EXPECT_EQ(s3, 2.25);
  EXPECT_EQ(u2, 2.75);
  EXPECT_EQ(u1, 4.25);
  // 2 arrival callbacks, 5 job wakeups and 9 completions. Four of those are
  // superseded and fire as no-ops: the ones due at 2.0 (u1 alone) and 1.0
  // (the two users), and two of the three due at 1.5 (s1 after each of
  // the later arrivals).
  EXPECT_EQ(sim.events_processed(), 16u);
  EXPECT_EQ(cpu.active_jobs(), 0);
}

Task Served(FifoServer& server, double service, double* done_at,
            Simulation& sim) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await server.Serve(service);
  *done_at = sim.now();
}

// Requests queued behind the one in service, which leaves service early (its
// waiter is destroyed) so the next starts at once, plus one arriving while
// another is in service. The leaver's completion still fires at its old
// instant, between the others, and does nothing: acting on it would end the
// request then in service early.
TEST(FifoServerTest, PinnedScriptWithQueueAndEarlyLeave) {
  Simulation sim;
  FifoServer server(sim);
  std::optional<FifoServer::Awaiter> leaver;
  leaver.emplace(server, 1.0);
  leaver->await_suspend(std::noop_coroutine());  // in service, due at 1.0
  double b = -1, c = -1, d = -1;
  sim.Spawn(Served(server, 0.25, &b, sim));
  sim.Spawn(Served(server, 0.5, &c, sim));
  sim.ScheduleCallback(0.5, [&] { leaver.reset(); });
  sim.ScheduleCallback(1.0, [&] { sim.Spawn(Served(server, 0.125, &d, sim)); });
  sim.Run();
  EXPECT_EQ(b, 0.75);
  EXPECT_EQ(c, 1.25);
  EXPECT_EQ(d, 1.375);
  // 2 callbacks, 3 wakeups and 4 completions, one of them the leaver's
  // no-op at 1.0.
  EXPECT_EQ(sim.events_processed(), 9u);
  EXPECT_EQ(server.queue_length(), 0);
  EXPECT_EQ(server.Utilization(), 1.0);  // busy from 0 to 1.375
}

Task DiskJob(DiskArray& disks, double* done_at, Simulation& sim) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await disks.Access();
  *done_at = sim.now();
}

TEST(DiskTest, AccessTimeWithinBounds) {
  Simulation sim;
  DiskArray disks(sim, 1, 0.010, 0.030, /*seed=*/1);
  for (int i = 0; i < 50; ++i) {
    double done = -1;
    double start = sim.now();
    sim.Spawn(DiskJob(disks, &done, sim));
    sim.Run();
    double dt = done - start;
    EXPECT_GE(dt, 0.010);
    EXPECT_LE(dt, 0.030);
  }
}

TEST(DiskTest, FifoQueueingSerializesRequests) {
  Simulation sim;
  DiskArray disks(sim, 1, 0.020, 0.020, /*seed=*/1);  // deterministic 20ms
  std::vector<double> done(5, -1);
  for (int i = 0; i < 5; ++i) sim.Spawn(DiskJob(disks, &done[i], sim));
  sim.Run();
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(done[i], 0.020 * (i + 1), 1e-9);
}

TEST(DiskTest, ArraySpreadsLoadAcrossDisks) {
  Simulation sim;
  DiskArray disks(sim, 2, 0.010, 0.030, /*seed=*/42);
  std::vector<double> done(200, -1);
  for (int i = 0; i < 200; ++i) sim.Spawn(DiskJob(disks, &done[i], sim));
  sim.Run();
  EXPECT_EQ(disks.TotalRequests(), 200u);
  // Uniform choice: each disk gets a substantial share.
  EXPECT_GT(disks.disk(0).requests(), 50u);
  EXPECT_GT(disks.disk(1).requests(), 50u);
}

Task NetJob(Network& net, std::uint64_t bytes, double* done_at,
            Simulation& sim) {  // analyzer-ok(suspend-ref): referent outlives sim.Run() in the test body
  co_await net.Transfer(bytes);
  *done_at = sim.now();
}

TEST(NetworkTest, TransferTimeMatchesBandwidth) {
  Simulation sim;
  Network net(sim, /*mbps=*/80);
  double done = -1;
  sim.Spawn(NetJob(net, 4096, &done, sim));
  sim.Run();
  EXPECT_NEAR(done, 4096 * 8.0 / 80e6, 1e-12);
}

TEST(NetworkTest, MessagesSerializeOnTheWire) {
  Simulation sim;
  Network net(sim, 80);
  double a = -1, b = -1;
  sim.Spawn(NetJob(net, 4096, &a, sim));
  sim.Spawn(NetJob(net, 4096, &b, sim));
  sim.Run();
  double one = 4096 * 8.0 / 80e6;
  EXPECT_NEAR(a, one, 1e-12);
  EXPECT_NEAR(b, 2 * one, 1e-12);
}

TEST(NetworkTest, UtilizationUnderLoad) {
  Simulation sim;
  Network net(sim, 80);
  double done = -1;
  sim.Spawn(NetJob(net, 80000000 / 8, &done, sim));  // exactly 1s of wire time
  sim.RunUntil(2.0);
  EXPECT_NEAR(net.Utilization(), 0.5, 1e-9);
}

// Teardown safety: destroying the simulation while jobs wait in every
// resource must not crash or leak. The simulation must die before the
// resources (frames unregister from live queues).
TEST(ResourceTeardownTest, MidServiceTeardownIsSafe) {
  double never = -1;
  auto sim = std::make_unique<Simulation>();
  Cpu cpu(*sim, 10);
  DiskArray disks(*sim, 2, 0.010, 0.030, 1);
  Network net(*sim, 80);
  for (int i = 0; i < 10; ++i) {
    sim->Spawn(UserJob(cpu, 1e9, &never, *sim));
    sim->Spawn(SystemJob(cpu, 1e9, &never, *sim));
    sim->Spawn(DiskJob(disks, &never, *sim));
    sim->Spawn(NetJob(net, 1 << 20, &never, *sim));
  }
  sim->RunUntil(0.001);
  sim.reset();  // destroys all 40 suspended processes mid-wait
  EXPECT_EQ(cpu.active_jobs(), 0);
  SUCCEED();
}

}  // namespace
}  // namespace psoodb::resources
