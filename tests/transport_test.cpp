// Tests for the Transport: CPU + wire + CPU cost chain, per-node-pair FIFO
// delivery (which the callback protocols rely on), and counter accounting.

#include <gtest/gtest.h>

#include <vector>

#include "config/params.h"
#include "core/messages.h"
#include "metrics/counters.h"
#include "resources/cpu.h"
#include "resources/network.h"
#include "sim/simulation.h"

namespace psoodb::core {
namespace {

struct Rig {
  sim::Simulation sim;
  config::SystemParams params;
  metrics::Counters counters;
  resources::Network network{sim, 80};
  Transport transport{sim, network, params, counters};
  resources::Cpu server_cpu{sim, 30};
  resources::Cpu client_cpu{sim, 15};

  Rig() {
    transport.AttachCpu(kServerNode, &server_cpu);
    transport.AttachCpu(0, &client_cpu);
  }
};

TEST(TransportTest, DeliveryIncursBothCpusAndWireTime) {
  Rig rig;
  double delivered_at = -1;
  rig.transport.Send(0, kServerNode, MsgKind::kReadReq, 256,
                     [&] { delivered_at = rig.sim.now(); });
  rig.sim.Run();
  // sender: (20000 + 2.44*256)/15e6 ; wire: 256*8/80e6 ; recv: same inst /30e6
  const double send_inst = rig.params.MsgInst(256);
  const double expected =
      send_inst / 15e6 + 256 * 8.0 / 80e6 + send_inst / 30e6;
  EXPECT_NEAR(delivered_at, expected, 1e-9);
}

TEST(TransportTest, SameSenderMessagesDeliverInOrder) {
  Rig rig;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    // Vary sizes: bigger messages take longer but must not overtake.
    int bytes = (i % 3 == 0) ? 4352 : 256;
    rig.transport.Send(kServerNode, 0, MsgKind::kDataReply, bytes,
                       [&order, i] { order.push_back(i); });
  }
  rig.sim.Run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(TransportTest, SendIsNonSuspending) {
  Rig rig;
  bool delivered = false;
  rig.transport.Send(0, kServerNode, MsgKind::kReadReq, 256,
                     [&] { delivered = true; });
  // Nothing delivered until the simulation runs: Send only enqueues.
  EXPECT_FALSE(delivered);
  rig.sim.Run();
  EXPECT_TRUE(delivered);
}

TEST(TransportTest, CountsMessagesByKind) {
  Rig rig;
  rig.transport.Send(0, kServerNode, MsgKind::kReadReq, 256, [] {});
  rig.transport.Send(0, kServerNode, MsgKind::kWriteReq, 256, [] {});
  rig.transport.Send(kServerNode, 0, MsgKind::kDataReply, 4352, [] {});
  rig.transport.Send(kServerNode, 0, MsgKind::kCallbackReq, 256, [] {});
  rig.transport.Send(0, kServerNode, MsgKind::kEvictionNotice, 256, [] {});
  rig.sim.Run();
  EXPECT_EQ(rig.counters.msgs_total, 5u);
  EXPECT_EQ(rig.counters.msgs_data, 1u);
  EXPECT_EQ(rig.counters.msgs_control, 4u);
  EXPECT_EQ(rig.counters.read_requests, 1u);
  EXPECT_EQ(rig.counters.write_requests, 1u);
  EXPECT_EQ(rig.counters.callbacks_sent, 1u);
  EXPECT_EQ(rig.counters.eviction_notices, 1u);
  EXPECT_EQ(rig.counters.bytes_sent, 256u * 4 + 4352u);
}

TEST(TransportTest, DataByteHelperAddsControlEnvelope) {
  Rig rig;
  EXPECT_EQ(rig.transport.ControlBytes(), 256);
  EXPECT_EQ(rig.transport.DataBytes(4096), 4096 + 256);
}

TEST(TransportTest, ConcurrentSendersShareTheWire) {
  Rig rig;
  resources::Cpu other_cpu(rig.sim, 15);
  rig.transport.AttachCpu(1, &other_cpu);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    rig.transport.Send(0, kServerNode, MsgKind::kReadReq, 4096,
                       [&] { ++delivered; });
    rig.transport.Send(1, kServerNode, MsgKind::kReadReq, 4096,
                       [&] { ++delivered; });
  }
  rig.sim.Run();
  EXPECT_EQ(delivered, 20);
  // The wire serialized 20 x 4096B: its busy time is bounded below by that.
  EXPECT_GT(rig.network.Utilization(), 0.0);
}

}  // namespace
}  // namespace psoodb::core
