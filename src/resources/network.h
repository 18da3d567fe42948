/// \file network.h
/// Local area network model: a single FIFO server with fixed bandwidth
/// (Section 4.1). Protocol-processing CPU costs are charged separately at
/// the sending and receiving CPUs by the transport layer, because CPU
/// overhead — not wire time — dominates LAN messaging in the modeled era.

#ifndef PSOODB_RESOURCES_NETWORK_H_
#define PSOODB_RESOURCES_NETWORK_H_

#include <cstdint>

#include "resources/fifo_server.h"
#include "sim/simulation.h"

namespace psoodb::resources {

/// Shared LAN segment. All messages from all nodes serialize through it.
class Network {
 public:
  /// \param bandwidth_mbps bandwidth in megabits per second.
  Network(sim::Simulation& sim, double bandwidth_mbps)
      : server_(sim),
        seconds_per_byte_(8.0 / (bandwidth_mbps * 1e6)) {}

  /// Occupies the wire for the transfer time of a `bytes`-sized message.
  /// Returns the wire's FIFO wait itself, so a message on the wire costs no
  /// coroutine frame.
  [[nodiscard]] FifoServer::Awaiter Transfer(std::uint64_t bytes) {
    return server_.Serve(static_cast<double>(bytes) * seconds_per_byte_);
  }

  double Utilization() const { return server_.Utilization(); }
  void ResetStats() { server_.ResetStats(); }
  std::uint64_t messages() const { return server_.requests(); }

 private:
  FifoServer server_;
  double seconds_per_byte_;
};

}  // namespace psoodb::resources

#endif  // PSOODB_RESOURCES_NETWORK_H_
