/// \file server.h
/// Base server engine shared by all six protocol variants: CPU, disks,
/// page buffer pool, lock manager, copy tables, the staging of PS-WT token
/// flushes, the one write-request entry, the commit/abort handlers that
/// serve Client::Commit and Client::Abort, and the steps every protocol's
/// request handlers share (the callback round and the callbacks it sends,
/// the aborted reply, the object-lock wait, and the object-lock write of OS
/// and PS-OO). PageServer adds the one read-request entry of the five
/// page-transfer servers. A protocol subclass keeps only its granularity
/// decisions: how its handlers ship, lock and call back.

#ifndef PSOODB_CORE_SERVER_H_
#define PSOODB_CORE_SERVER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "cc/copy_table.h"
#include "util/inline_function.h"
#include "cc/deadlock_detector.h"
#include "cc/lock_manager.h"
#include "core/context.h"
#include "core/messages.h"
#include "resources/cpu.h"
#include "resources/disk.h"
#include "sim/pool.h"
#include "storage/buffer_manager.h"
#include "trace/trace.h"
#include "util/annotations.h"
#include "util/small_vector.h"

namespace psoodb::core {

class Client;

/// Shared state for one batch of callbacks issued by a write-request handler.
/// Client replies and deferred acks mutate it; the handler waits on `cv`.
class Server;

struct CallbackBatch {
  explicit CallbackBatch(sim::Simulation& s) : cv(s) {}
  /// The server that issued the callbacks (clients route replies to it).
  Server* owner = nullptr;
  int pending = 0;  ///< callbacks whose *final* outcome has not arrived
  /// Blocking transactions discovered via "in use" replies, not yet
  /// registered in the waits-for graph by the handler.
  std::vector<storage::TxnId> new_blockers;
  /// Final outcomes that dropped the holder's copy (counted by on_final).
  int dropped = 0;
  /// The holders called back, with the epochs the callbacks were issued
  /// against (Server::CallbackRound's snapshot of the copy table).
  util::SmallVector<cc::CopyHolder, 4> holders;
  /// Applied synchronously when a final outcome arrives — copy-table
  /// unregistration must happen *at reply delivery*: the replying client's
  /// later requests (e.g. a re-fetch that re-registers the page) are
  /// FIFO-ordered after its reply, so a deferred unregistration in the
  /// issuing handler could erase a registration made after the purge.
  /// Inline storage: the callback round's capture set (copy table, item
  /// id, this batch) fits the 48-byte buffer.
  util::InlineFunction<void(storage::ClientId, CallbackOutcome)> on_final;
  sim::CondVar cv;
  bool dead = false;  ///< set when the issuing handler aborted
};

class Server {
 public:
  /// \param index which partition this server owns (0 for single-server).
  explicit Server(SystemContext& ctx, int index = 0);
  virtual ~Server() = default;

  /// This server's network address.
  NodeId node() const { return node_; }
  int index() const { return index_; }

  /// Wires up the client list (for callback delivery). Index = ClientId.
  void SetClients(std::vector<Client*> clients) {
    clients_ = std::move(clients);
  }

  resources::Cpu& cpu() { return cpu_; }
  resources::DiskArray& disks() { return disks_; }
  cc::LockManager& lock_manager() { return lm_; }

  // --- Telemetry observation (src/metrics/timeseries.h). Always-on plain
  // integer bookkeeping; never feeds back into the simulation. -------------
  /// Buffer-pool probes / hits in EnsureBuffered (first lookup only — the
  /// post-disk-read re-check is not a second demand miss).
  std::uint64_t buffer_lookups() const { return buf_lookups_; }
  std::uint64_t buffer_hits() const { return buf_hits_; }
  /// Callback fan-out rounds currently awaiting their drain.
  int callback_rounds_inflight() const { return cb_rounds_inflight_; }
  /// Dirty pages currently in the buffer pool, counted where a frame turns
  /// dirty (InstallCommittedPage) and where a dirty frame leaves it
  /// (EnsureBuffered's eviction); the invariant sweep checks the count
  /// against a walk of the buffer.
  int dirty_pages() const { return dirty_pages_; }
  cc::DeadlockDetector& detector() { return *ctx_.detector; }
  storage::PageCache& buffer() { return buffer_; }
  cc::PageCopyTable& page_copies() { return page_copies_; }
  cc::ObjectCopyTable& object_copies() { return object_copies_; }
  /// Transactions with updates a PS-WT token flush staged here, ascending.
  std::vector<storage::TxnId> StagedTxns() const;

  // --- Message entry points (invoked by Transport deliveries) -------------
  // The request entries spawn handler coroutines.

  /// Client entry: request write permission on `oid`; spawns the protocol's
  /// HandleWrite.
  void OnWriteReq(storage::ObjectId oid, storage::TxnId txn,
                  storage::ClientId client,
                  sim::Promise<WriteGrant> reply) PSOODB_REPLIES;
  void OnCommitReq(storage::TxnId txn, storage::ClientId client,
                   std::vector<PageUpdate> updates,
                   sim::Promise<CommitAck> reply) PSOODB_REPLIES;
  void OnAbortReq(storage::TxnId txn, storage::ClientId client,
                  std::vector<storage::PageId> purged_pages,
                  std::vector<storage::ObjectId> purged_objects,
                  sim::Promise<bool> reply) PSOODB_REPLIES;
  /// Stages the uncommitted update of one page (dirty slots and object
  /// growth) that a PS-WT token flush carried for `txn`; its commit
  /// installs it, its abort discards it.
  void OnDirtyInstall(storage::TxnId txn, PageUpdate update);
  /// A client dropped its cached copy of `page` (eviction notice). Default:
  /// unregister the page-granularity copy; PS-OO overrides to unregister
  /// object-granularity copies.
  virtual void OnClientDroppedPage(storage::PageId page,
                                   storage::ClientId client);
  void OnObjectEvictionNotice(storage::ObjectId oid, storage::ClientId client);

  /// Applies a client's (immediate or deferred) callback response to the
  /// batch the issuing write-request handler is waiting on.
  void FinishCallbackReply(const std::shared_ptr<CallbackBatch>& batch,
                           storage::ClientId from, CallbackReply reply);

 protected:
  /// True if this protocol replaces whole pages at commit (the committing
  /// transaction held page-level exclusive access to `page`); false means
  /// object-granularity merge (CopyMergeInst per updated object, plus a disk
  /// read if the base page is absent).
  virtual bool CommitReplacesPage(storage::TxnId txn,
                                  storage::PageId page) const = 0;

  /// Unregisters whatever replica bookkeeping this protocol keeps when a
  /// client purges its dirty state on abort.
  virtual void OnAbortPurge(storage::TxnId txn, storage::ClientId client,
                            const std::vector<storage::PageId>& pages,
                            const std::vector<storage::ObjectId>& objects);

  /// The write-request handler; the X lock it takes outlives it (released
  /// at commit/abort). Default: the object-lock write of OS and PS-OO — an
  /// object X lock, object callbacks, an object grant.
  virtual sim::Task HandleWrite(storage::ObjectId oid, storage::TxnId txn,
                                storage::ClientId client,
                                sim::Promise<WriteGrant> reply)
      PSOODB_ACQUIRES(lock) PSOODB_REPLIES;

  // --- Shared helpers ------------------------------------------------------

  /// Ensures `page` is in the server buffer pool, reading from disk (and
  /// possibly writing back a dirty victim) if needed. If `load` is false the
  /// frame is created without a disk read (incoming data replaces it).
  /// `txn` is the requesting transaction, for trace attribution (kNoTxn for
  /// work not done on behalf of one).
  sim::Task EnsureBuffered(storage::PageId page, bool load, storage::TxnId txn);

  /// One disk I/O with its CPU initiation overhead, attributed to `txn`.
  /// `page` tags the trace event (-1 for log / overflow writes).
  sim::Task DiskIo(bool write, storage::TxnId txn, storage::PageId page = -1);

  /// Sends a message to a client. `deliver` is any callable (see
  /// Transport::Send).
  template <typename F>
  void SendToClient(storage::ClientId client, MsgKind kind, int payload_bytes,
                    F&& deliver) {
    ctx_.transport.Send(node_, static_cast<NodeId>(client), kind,
                        payload_bytes, std::forward<F>(deliver));
  }

  /// Replies to a request whose transaction was aborted (a deadlock victim):
  /// a control message carrying a default `Reply` with only `aborted` set.
  /// Every handler's abort branch sends it; the client turns the flag back
  /// into an aborted outcome.
  template <typename Reply>
  void ReplyAborted(storage::ClientId client, sim::Promise<Reply> reply) {
    SendToClient(client, MsgKind::kControlReply, ctx_.transport.ControlBytes(),
                 [reply = std::move(reply)]() mutable {
                   Reply aborted;
                   aborted.aborted = true;
                   reply.Set(std::move(aborted));
                 });
  }

  /// The callback round of a write request (Section 3): calls back every
  /// holder of `item` in `copies` other than `client` and waits for their
  /// final replies. For each holder, in HoldersExcept order, it emits
  /// kCallbackIssue and sends a kCallbackReq for (`page`, `oid`), which the
  /// client answers in Client::OnCallback (PS passes oid -1: a page
  /// callback). Each holder's registration is dropped when its final reply
  /// is delivered (CallbackBatch::on_final), but only under the epoch the
  /// callback was issued against: the replying client may purge an old copy
  /// while a fresh ship to it is already in flight. After the drain it
  /// charges RegisterCopyInst per dropped copy.
  /// Ends aborted if `txn` must abort while waiting (AwaitCallbacks).
  template <typename ItemId>
  sim::Task CallbackRound(cc::CopyTable<ItemId>& copies, ItemId item,
                          storage::ClientId client, storage::TxnId txn,
                          storage::PageId page, storage::ObjectId oid);

  /// Whether a final callback outcome drops the holder's copy: a page copy
  /// survives kRetained ("page kept", one object marked unavailable); an
  /// object copy is gone on every final outcome.
  static bool DropsCopy(const cc::PageCopyTable&, CallbackOutcome outcome) {
    return outcome != CallbackOutcome::kRetained;
  }
  static bool DropsCopy(const cc::ObjectCopyTable&, CallbackOutcome) {
    return true;
  }

  /// Creates a callback batch owned by this server. Pool-allocated: batches
  /// turn over once per write-request handler, and allocate_shared fuses the
  /// batch and its control block into a single pooled block.
  std::shared_ptr<CallbackBatch> NewBatch() PSOODB_ACQUIRES(batch) {
    auto b = std::allocate_shared<CallbackBatch>(
        sim::detail::PoolAllocator<CallbackBatch>{}, ctx_.sim);
    b->owner = this;
    return b;
  }

  /// Waits for all callbacks in `batch` to reach a final outcome,
  /// registering waits-for edges for blockers as they appear. Ends aborted
  /// if `txn` closes a deadlock cycle or is a marked victim, marking the
  /// batch dead first.
  sim::Task AwaitCallbacks(std::shared_ptr<CallbackBatch> batch,
                           storage::TxnId txn) PSOODB_RELEASES(batch);

  /// True if a transaction other than `txn` holds `oid`'s X lock.
  bool ObjectLockedByOther(storage::ObjectId oid, storage::TxnId txn) const {
    const storage::TxnId holder = lm_.ObjectXHolder(oid);
    return holder != storage::kNoTxn && holder != txn;
  }

  /// Waits until no other transaction holds `oid`'s X lock and `page` is in
  /// the buffer pool; both hold on return, with no suspension after the
  /// last check. Ends aborted if the lock wait does.
  sim::Task WaitObjectReadable(storage::ObjectId oid, storage::PageId page,
                               storage::TxnId txn);

  /// The objects of `page` X-locked by transactions other than `txn`: they
  /// travel marked unavailable under object-level locking.
  storage::SlotMask UnavailableMask(storage::PageId page,
                                    storage::TxnId txn) const;

  /// Builds the PageShip for `page` (versions from ground truth), marking
  /// `unavailable` slots. Must be called with the page buffered, and with no
  /// suspension between copy registration and the ship send.
  PageShip MakeShip(storage::PageId page, storage::SlotMask unavailable) const;

  /// Applies one committed page update: merge or replace, version bumps,
  /// dirty marking, and — for size-changing updates — page-fill accounting
  /// with overflow forwarding (Section 6.1). Appends (oid, new version)
  /// pairs to `ack`.
  sim::Task InstallCommittedPage(storage::TxnId txn, storage::PageId page,
                                 storage::SlotMask mask, int growth_bytes,
                                 CommitAck* ack);

  /// Logical fill of `page` in bytes (size-changing updates model).
  double PageFill(storage::PageId page) const;

  sim::Task HandleCommit(storage::TxnId txn, storage::ClientId client,
                         std::vector<PageUpdate> updates,
                         sim::Promise<CommitAck> reply)
      PSOODB_RELEASES(lock) PSOODB_REPLIES;
  sim::Task HandleAbort(storage::TxnId txn, storage::ClientId client,
                        std::vector<storage::PageId> purged_pages,
                        std::vector<storage::ObjectId> purged_objects,
                        sim::Promise<bool> reply)
      PSOODB_RELEASES(lock) PSOODB_REPLIES;

#if PSOODB_SEED_OBLIGATION_BUGS
  // Test-only seeded defects (never compiled — the flag is never defined).
  // The analyzer still lexes this block; tests/analyzer_test.cpp asserts
  // that lock-leak catches the abort-branch leak and reply-obligation the
  // dropped reply in the definitions (src/core/server.cpp).
  sim::Task HandleAbortSeededLeak(storage::TxnId txn, storage::ClientId client,
                                  sim::Promise<bool> reply) PSOODB_REPLIES;
  sim::Task HandleReadSeededDrop(storage::PageId page, storage::TxnId txn,
                                 storage::ClientId client,
                                 sim::Promise<PageShip> reply) PSOODB_REPLIES;
#endif

  Client* client(storage::ClientId id) { return clients_.at(id); }

  SystemContext& ctx_;
  int index_;
  NodeId node_;
  resources::Cpu cpu_;
  resources::DiskArray disks_;
  storage::PageCache buffer_;
  cc::LockManager lm_;
  cc::PageCopyTable page_copies_;
  cc::ObjectCopyTable object_copies_;
  /// Uncommitted updates PS-WT token flushes staged at the server
  /// (undo-at-server), per transaction in arrival order.
  std::unordered_map<storage::TxnId, std::vector<PageUpdate>> staging_;
  /// Per-page logical fill in bytes (lazily initialized to
  /// initial_fill * page_size); only consulted when size_change_prob > 0.
  std::unordered_map<storage::PageId, double> page_fill_;
  std::vector<Client*> clients_;
  // Telemetry bookkeeping (see the accessors above).
  std::uint64_t buf_lookups_ = 0;
  std::uint64_t buf_hits_ = 0;
  int cb_rounds_inflight_ = 0;
  /// Frames in buffer_ with a dirty slot (see dirty_pages()).
  int dirty_pages_ = 0;

 private:
  /// Sends one callback of a round to `holder` (CallbackRound's only send).
  void SendCallback(storage::ClientId holder, storage::PageId page,
                    storage::ObjectId oid, storage::TxnId txn,
                    const std::shared_ptr<CallbackBatch>& batch);
};

/// Shared base of the five page-transfer servers (PS, PS-OO, PS-OA, PS-AA,
/// PS-WT), the server-side mirror of PageFamilyClient: the one read-request
/// entry. OS ships objects and keeps its own.
class PageServer : public Server {
 public:
  using Server::Server;

  /// Client entry: request the page holding `oid`; spawns the protocol's
  /// HandleRead.
  void OnReadReq(storage::ObjectId oid, storage::TxnId txn,
                 storage::ClientId client,
                 sim::Promise<PageShip> reply) PSOODB_REPLIES;

 protected:
  /// Ships the page holding `oid` once `oid` is readable, leaving the copy
  /// registered (the registration *is* the client's read permission).
  virtual sim::Task HandleRead(storage::ObjectId oid, storage::TxnId txn,
                               storage::ClientId client,
                               sim::Promise<PageShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES = 0;
};

template <typename ItemId>
sim::Task Server::CallbackRound(cc::CopyTable<ItemId>& copies, ItemId item,
                                storage::ClientId client, storage::TxnId txn,
                                storage::PageId page, storage::ObjectId oid) {
  const cc::HolderRange holders = copies.HoldersExcept(item, client);
  if (holders.empty()) co_return;
  auto batch = NewBatch();
  for (const cc::CopyHolder& h : holders) batch->holders.push_back(h);
  batch->pending = static_cast<int>(batch->holders.size());
  batch->on_final = [&copies, item, b = batch.get()](storage::ClientId c,
                                                     CallbackOutcome outcome) {
    if (!DropsCopy(copies, outcome)) return;
    ++b->dropped;
    for (const cc::CopyHolder& h : b->holders) {
      if (h.client == c) {
        copies.UnregisterIfEpoch(item, c, h.epoch);
        return;
      }
    }
  };
  for (const cc::CopyHolder& h : batch->holders) {
    if (ctx_.tracer != nullptr) {
      ctx_.tracer->Emit(trace::EventKind::kCallbackIssue, node_, txn, page,
                        oid, -1, h.client);
    }
    SendCallback(h.client, page, oid, txn, batch);
  }
  if (const bool aborted = co_await AwaitCallbacks(batch, txn); aborted) {
    co_await sim::EndAborted();
  }
  // Issued even when nothing was dropped (every holder kept its page): the
  // zero-length job is still an event.
  trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
  co_await cpu_.System(ctx_.params.register_copy_inst * batch->dropped);
}

}  // namespace psoodb::core

#endif  // PSOODB_CORE_SERVER_H_
