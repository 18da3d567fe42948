/// \file messages.h
/// Message kinds, payloads, and the Transport that moves them between client
/// and server nodes. A message costs CPU at the sender and at the receiver
/// (FixedMsgInst + PerByteMsgInst * size, charged at system priority) plus
/// wire time on the shared FIFO network (Section 4.1).
///
/// Ordering guarantee: Send() is non-suspending — it enqueues the sender-side
/// CPU work synchronously, and both the per-node CPU (FIFO for system
/// requests) and the network are FIFO. Therefore messages between the same
/// pair of nodes are delivered in send order, which the callback-locking
/// protocols rely on (e.g. a page ship must reach a client before a callback
/// for that page that was issued later).

#ifndef PSOODB_CORE_MESSAGES_H_
#define PSOODB_CORE_MESSAGES_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "config/params.h"
#include "metrics/counters.h"
#include "resources/cpu.h"
#include "resources/network.h"
#include "sim/awaitables.h"
#include "sim/shard.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "storage/buffer_manager.h"
#include "storage/types.h"
#include "trace/trace.h"

namespace psoodb::core {

/// Node address: clients are 0..num_clients-1; servers are negative ids.
/// With partitioned data (multi-server), server i is ServerNode(i).
using NodeId = int;
inline constexpr NodeId ServerNode(int index) { return -1 - index; }
inline constexpr NodeId kServerNode = ServerNode(0);

enum class MsgKind : std::uint8_t {
  // Client -> server requests.
  kReadReq,         ///< page or object read request (control)
  kWriteReq,        ///< write lock request (control)
  kCommitReq,       ///< commit with updated pages/objects (data)
  kAbortReq,        ///< abort notification (control)
  kDirtyInstall,    ///< unused: nothing sends it; kept so later kinds keep
                    ///< their values (TRACE msg_* events carry the kind)
  kEvictionNotice,  ///< clean eviction: drop copy registration (control)
  kCallbackAck,     ///< deferred callback completion (control)
  // Server -> client.
  kDataReply,     ///< page or object ship (data)
  kControlReply,  ///< grant / ack / abort reply (control)
  kCallbackReq,   ///< callback / invalidation request (control)
  kDeEscalateReq, ///< PS-AA: de-escalate a page write lock (control)
  kDeEscalateReply,  ///< client -> server: updated objects on the page (control)
  kTokenRecall,   ///< PS-WT: recall a page's write token (control)
  kTokenFlush,    ///< PS-WT: owner flushes the page image back (data)
};

/// True if the message carries bulk data (pages or objects).
inline bool IsDataMsg(MsgKind k) {
  return k == MsgKind::kCommitReq || k == MsgKind::kDataReply ||
         k == MsgKind::kTokenFlush;
}

// --- Common reply payloads --------------------------------------------------

/// Outcome of a callback at a client.
enum class CallbackOutcome : std::uint8_t {
  kPurged,    ///< page (or object) dropped from the cache
  kRetained,  ///< page kept; the requested object was marked unavailable
  kNotCached, ///< the client no longer held a copy
  kInUse,     ///< blocked by the client's active transaction; ack comes later
};

/// First response to a callback. If `outcome == kInUse`, `blocking_txn` names
/// the active transaction and a kCallbackAck with the final outcome follows
/// when it ends.
struct CallbackReply {
  CallbackOutcome outcome = CallbackOutcome::kPurged;
  storage::TxnId blocking_txn = storage::kNoTxn;
};

/// A page shipped to a client.
struct PageShip {
  storage::PageId page = -1;
  storage::SlotMask unavailable = 0;  ///< objects write-locked elsewhere
  std::vector<storage::Version> versions;
  bool aborted = false;  ///< request failed; transaction must abort
};

/// An object shipped to an OS client.
struct ObjectShip {
  storage::ObjectId oid = -1;
  storage::Version version = 0;
  bool aborted = false;
};

/// Write permission granted by the server.
enum class GrantLevel : std::uint8_t { kObject, kPage };

struct WriteGrant {
  GrantLevel level = GrantLevel::kObject;
  bool aborted = false;
  /// PS-WT: the page image a token handoff routes to the new owner.
  std::optional<PageShip> ship;
};

/// Commit acknowledgment: new committed versions of the written objects.
struct CommitAck {
  std::vector<std::pair<storage::ObjectId, storage::Version>> new_versions;
};

/// One updated page sent to its owning server at commit.
struct PageUpdate {
  storage::PageId page = -1;
  storage::SlotMask dirty = 0;  ///< slots updated by the transaction
  int growth_bytes = 0;  ///< net object growth (size-changing updates)
};

// --- Transport ---------------------------------------------------------------

/// Moves messages between nodes, charging CPU and network costs.
class Transport {
 public:
  Transport(sim::Simulation& sim, resources::Network& network,
            const config::SystemParams& params, metrics::Counters& counters)
      : sim_(sim), network_(network), params_(params), counters_(counters) {}

  /// Registers the CPU of a node (call once per node before any Send).
  void AttachCpu(NodeId node, resources::Cpu* cpu) {
    std::vector<resources::Cpu*>& v = node >= 0 ? client_cpus_ : server_cpus_;
    const std::size_t i = static_cast<std::size_t>(node >= 0 ? node : -1 - node);
    if (v.size() <= i) v.resize(i + 1, nullptr);
    v[i] = cpu;
  }

  /// Wires the optional event tracer (null = tracing off): every message
  /// then emits kMsgSend at enqueue and kMsgRecv at delivery.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // --- Partitioned runs (sim/shard.h) -----------------------------------
  //
  // One Transport per partition. Intra-partition traffic crosses the
  // partition's own network segment; cross-partition traffic
  // leaves through a dedicated point-to-point link per partition pair
  // ("switched" network — a modeled deviation from the paper's single
  // shared segment, see docs/SIMULATOR.md) and is handed to the destination
  // partition through the ShardGroup mailbox. `link_latency` must be >= the
  // group's lookahead; arrival times preserve per-link FIFO.

  /// Marks this transport as partition `partition` of `group`.
  void ConfigurePartition(sim::ShardGroup* group, int partition,
                          double link_latency, double link_seconds_per_byte) {
    group_ = group;
    partition_ = partition;
    link_latency_ = link_latency;
    link_seconds_per_byte_ = link_seconds_per_byte;
    link_free_.assign(static_cast<std::size_t>(group->partitions()), 0.0);
  }

  /// All partitions' transports, indexed by partition (call once after all
  /// of them are constructed).
  void SetPeers(std::vector<Transport*> peers) { peers_ = std::move(peers); }

  /// Home partition per client id (servers live in partition == index).
  void SetClientPartitions(std::vector<int> client_partition) {
    client_partition_ = std::move(client_partition);
  }

  /// Sends a message: charges sender CPU, wire time, receiver CPU, then runs
  /// `deliver` at the receiver. Non-suspending: the caller's state mutations
  /// immediately before Send() and the send itself are atomic with respect
  /// to other simulation events, and per node-pair delivery is FIFO.
  ///
  /// `deliver` is any callable; it moves into the delivery coroutine's
  /// (pooled) frame, so per-message sends do not touch the global allocator
  /// the way the former std::function signature did.
  template <typename F>
  void Send(NodeId from, NodeId to, MsgKind kind, int payload_bytes,
            F&& deliver) {
    NoteSend(from, to, kind, payload_bytes);
    if (group_ != nullptr) {
      const int dest = PartitionOf(to);
      if (dest != partition_) {
        sim_.Spawn(DeliverCross(dest, from, to, kind, payload_bytes,
                                std::forward<F>(deliver)));
        return;
      }
    }
    // Spawning enters the sender-CPU queue synchronously (the delivery task
    // runs until its first suspension), so send order == CPU order == wire
    // order for messages from the same node.
    sim_.Spawn(
        Deliver(from, to, kind, payload_bytes, std::forward<F>(deliver)));
  }

  /// Message size for a control message.
  int ControlBytes() const { return params_.control_msg_bytes; }
  /// Message size for a data message carrying `data_bytes` of payload.
  int DataBytes(int data_bytes) const {
    return params_.control_msg_bytes + data_bytes;
  }

 private:
  /// Counter/tracer bookkeeping for one send (the non-template half).
  void NoteSend(NodeId from, NodeId to, MsgKind kind, int payload_bytes);

  template <typename F>
  sim::Task Deliver(NodeId from, NodeId to, MsgKind kind, int bytes,
                    F deliver) {
    resources::Cpu* sender = CpuOf(from);
    resources::Cpu* receiver = CpuOf(to);
    co_await sender->System(params_.MsgInst(bytes));
    co_await network_.Transfer(static_cast<std::uint64_t>(bytes));
    co_await receiver->System(params_.MsgInst(bytes));
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kMsgRecv, to, storage::kNoTxn, -1,
                    bytes, static_cast<std::int64_t>(kind), from);
    }
    deliver();
  }

  /// Cross-partition send: sender CPU here, then a point-to-point link with
  /// per-(src, dest) FIFO (`link_free_` tracks when the link clears), then
  /// the destination partition runs RemoteTail at the arrival time. The
  /// latency term makes every arrival land at or after the window edge —
  /// the conservative-lookahead contract Post() asserts.
  template <typename F>
  sim::Task DeliverCross(int dest, NodeId from, NodeId to, MsgKind kind,
                         int bytes, F deliver) {
    co_await CpuOf(from)->System(params_.MsgInst(bytes));
    double& free_at = link_free_[static_cast<std::size_t>(dest)];
    const double start = std::max(free_at, sim_.now());
    const double arrival =
        start + link_latency_ +
        static_cast<double>(bytes) * link_seconds_per_byte_;
    free_at = arrival;
    Transport* peer = peers_[static_cast<std::size_t>(dest)];
    group_->Post(
        partition_, dest, arrival,
        sim::InlineFunction(
            [peer, from, to, kind, bytes, d = std::move(deliver)]() mutable {
              peer->sim_.Spawn(
                  peer->RemoteTail(from, to, kind, bytes, std::move(d)));
            }));
  }

  /// Receiver half of a cross-partition delivery, running in the
  /// destination partition's simulation.
  template <typename F>
  sim::Task RemoteTail(NodeId from, NodeId to, MsgKind kind, int bytes,
                       F deliver) {
    co_await CpuOf(to)->System(params_.MsgInst(bytes));
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kMsgRecv, to, storage::kNoTxn, -1,
                    bytes, static_cast<std::int64_t>(kind), from);
    }
    deliver();
  }

  resources::Cpu* CpuOf(NodeId node) const {
    return node >= 0 ? client_cpus_[static_cast<std::size_t>(node)]
                     : server_cpus_[static_cast<std::size_t>(-1 - node)];
  }

  int PartitionOf(NodeId node) const {
    if (node < 0) return -1 - node;  // server i lives in partition i
    return client_partition_.empty()
               ? 0
               : client_partition_[static_cast<std::size_t>(node)];
  }

  sim::Simulation& sim_;
  resources::Network& network_;
  const config::SystemParams& params_;
  metrics::Counters& counters_;
  trace::Tracer* tracer_ = nullptr;
  /// Node CPUs, densely indexed: clients by id, servers by partition index
  /// (NodeId -1-i): two loads per lookup.
  std::vector<resources::Cpu*> client_cpus_;
  std::vector<resources::Cpu*> server_cpus_;
  // --- partitioned runs only (null/empty otherwise) ---------------------
  sim::ShardGroup* group_ = nullptr;
  int partition_ = 0;
  double link_latency_ = 0.0;
  double link_seconds_per_byte_ = 0.0;
  std::vector<double> link_free_;  ///< per-destination link clear time
  std::vector<Transport*> peers_;
  std::vector<int> client_partition_;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_MESSAGES_H_
