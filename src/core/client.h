/// \file client.h
/// Base client engine: the transaction loop (execute reference string,
/// abort-and-resubmit), the one commit (updated copies to their owning
/// servers) and the one abort (purge at the client) of all six protocols,
/// local lock state, read-version tracking for the correctness checkers,
/// and deferred ("in use") callback handling. PageFamilyClient adds the
/// page cache, page-ship merging, and the shared read/write flow of the
/// five page-transfer protocols.

#ifndef PSOODB_CORE_CLIENT_H_
#define PSOODB_CORE_CLIENT_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cc/local_locks.h"
#include "core/context.h"
#include "core/messages.h"
#include "core/server.h"
#include "resources/cpu.h"
#include "sim/random.h"
#include "storage/buffer_manager.h"
#include "storage/object_cache.h"
#include "trace/trace.h"
#include "util/annotations.h"
#include "workload/workload.h"

namespace psoodb::core {

class Client {
 public:
  Client(SystemContext& ctx, storage::ClientId id,
         const config::WorkloadParams& workload,
         std::vector<Server*> servers);
  virtual ~Client() = default;

  /// Spawns the transaction loop (runs until the simulation is torn down).
  void Start();

  storage::ClientId id() const { return id_; }
  resources::Cpu& cpu() { return cpu_; }
  storage::TxnId active_txn() const {
    return txn_active_ ? txn_ : storage::kNoTxn;
  }

  // --- Introspection for the invariant checker ----------------------------
  /// The active transaction's local lock state (read/write footprint plus
  /// server-granted write permissions).
  const cc::LocalTxnLocks& local_locks() const { return locks_; }
  /// True while the active transaction is in its commit or abort protocol
  /// (local lock/cache state legitimately outlives the server's lock state
  /// inside these windows, so cross-checks must skip terminating clients).
  bool terminating() const { return txn_committing_ || txn_aborting_; }
  /// Cached page frame, or null (null for object-server clients).
  virtual const storage::PageFrame* PeekPage(storage::PageId) const {
    return nullptr;
  }
  /// Cached object frame, or null (null for page-family clients).
  virtual const storage::ObjectFrame* PeekObject(storage::ObjectId) const {
    return nullptr;
  }
  /// Enumerates cached page frames in LRU order (page-family clients).
  virtual void ForEachCachedPage(
      const std::function<void(storage::PageId, const storage::PageFrame&)>&)
      const {}
  /// Enumerates cached object frames in LRU order (object-server clients).
  virtual void ForEachCachedObject(
      const std::function<void(storage::ObjectId,
                               const storage::ObjectFrame&)>&) const {}

  // --- Callback entry points (invoked by Transport deliveries) ------------
  /// A callback of `requester`'s write request for `oid` on `page` (oid -1:
  /// a page callback). The protocol decides what the client drops and
  /// answers through ReplyCallback.
  virtual void OnCallback(storage::PageId page, storage::ObjectId oid,
                          storage::TxnId requester,
                          std::shared_ptr<CallbackBatch> batch) = 0;
  virtual void OnDeEscalate(
      storage::PageId page,
      sim::Promise<std::vector<storage::ObjectId>> reply) PSOODB_REPLIES;
  /// PS-WT: surrender the write token for `page`, flushing the current page
  /// image (with any uncommitted updates, staged at the server) first.
  virtual void OnTokenRecall(storage::PageId page,
                             sim::Promise<bool> done) PSOODB_REPLIES;

 protected:
  /// Items an aborting transaction purged from the cache at one server.
  struct PurgedItems {
    std::vector<storage::PageId> pages;
    std::vector<storage::ObjectId> objects;
  };

  // --- Protocol hooks ------------------------------------------------------
  // Read/Write pin the touched item into the client cache for the life of
  // the transaction (a cached copy *is* the read permission — see UnpinAll);
  // Commit/Abort end the transaction and drop every pin.
  virtual sim::Task Read(storage::ObjectId oid) PSOODB_ACQUIRES(pin) = 0;
  virtual sim::Task Write(storage::ObjectId oid) PSOODB_ACQUIRES(pin) = 0;

  // --- Cache-granularity hooks of Commit and Abort --------------------------
  // Commit and Abort find the transaction's updates in its footprint, one
  // written page at a time (ForEachWrittenPage); `written` is the page's
  // written mask there.
  /// Appends the update of `page` that the cache still holds to `updates`
  /// (nothing when a PS-WT token flush left the page clean).
  virtual void CollectUpdate(storage::PageId page, storage::SlotMask written,
                             std::vector<PageUpdate>& updates) const = 0;
  /// Data bytes of a commit message carrying `updates`.
  virtual int CommitPayload(const std::vector<PageUpdate>& updates) const = 0;
  /// Refreshes cached copies with the committed versions of `ack` and cleans
  /// them.
  virtual void ApplyCommitted(const CommitAck& ack) = 0;
  /// Removes the transaction's updates of `page` from the cache, recording
  /// what it removed in `purged`.
  virtual void PurgeUpdate(storage::PageId page, storage::SlotMask written,
                           PurgedItems& purged) = 0;

  // --- Shared machinery ----------------------------------------------------
  sim::Task MainLoop();
  /// Ships the still-cached updates to their owning servers (one kCommitReq
  /// per server the write set touches, in server order), waits for every
  /// ack, records the history, applies the new versions, and ends the
  /// transaction.
  sim::Task Commit() PSOODB_RELEASES(pin);
  /// Purges the written items, tells every server (each may hold locks or
  /// wait-edges for the transaction), waits for the acks, and ends the
  /// transaction.
  sim::Task Abort() PSOODB_RELEASES(pin);
  /// Calls `fn(server, page, written)` for every page the transaction wrote:
  /// `server` indexes the page's owning server, `written` is the page's
  /// written mask. Commit and Abort read the write set here only.
  template <typename Fn>
  void ForEachWrittenPage(Fn&& fn) const;
  void BeginTxn();
  /// Clears transaction state and runs deferred callback actions.
  void EndTxnLocal() PSOODB_RELEASES(pin);
  /// Releases the cache pins of the transaction's footprint. Under Callback
  /// Locking a cached copy *is* the read permission, so items read or
  /// written by the active transaction are pinned until it ends — evicting
  /// one would silently drop a read lock (requires the client cache to be
  /// larger than a transaction's page footprint; System asserts this).
  /// Safe to call twice in one transaction (LocalTxnLocks::ReleasePins).
  virtual void UnpinAll() PSOODB_RELEASES(pin) {}
  /// Checks the cache-validity invariant for a read of `oid` that found
  /// `version`, and records the version when the read is the object's first
  /// (`before`: what LocalTxnLocks::RecordRead returned). A read of an object
  /// this transaction has already written skips both. Returns false when
  /// the check finds a stale version.
  bool NoteRead(storage::ObjectId oid, storage::Version version,
                cc::LocalTxnLocks::Access before);
  /// Defers an action until the current transaction ends. Small callables
  /// are stored inline (sim::InlineFunction), so deferring is allocation-
  /// free on the hot path.
  template <typename F>
  void Defer(F&& action) {
    deferred_.emplace_back(std::forward<F>(action));
  }

  // --- RPC-window tracing ---------------------------------------------------
  // Each client->server round trip is bracketed by BeginRpc/EndRpc; the
  // window's elapsed sim time minus whatever servers attributed to this
  // transaction inside it (lock wait, callback wait, server CPU, disk) is
  // accounted as network/messaging time. Both are no-ops when tracing is
  // off. Windows never nest: a client runs one request at a time.

  /// Call immediately before co_awaiting a reply future (placing it before
  /// the non-suspending send is equivalent).
  void BeginRpc() {
    if (ctx_.tracer == nullptr) return;
    rpc_start_ = ctx_.sim.now();
    rpc_server0_ = ctx_.tracer->ServerAttributed(txn_);
  }
  /// Call right after the reply future resolves (before any throw based on
  /// the reply's contents).
  void EndRpc() {
    if (ctx_.tracer == nullptr) return;
    const double elapsed = ctx_.sim.now() - rpc_start_;
    const double server_dt =
        ctx_.tracer->ServerAttributed(txn_) - rpc_server0_;
    cycle_.Add(trace::Phase::kNetwork, elapsed - server_dt);
  }

  /// Sends a message to a specific (partition) server. `deliver` is any
  /// callable (see Transport::Send).
  template <typename F>
  void SendToServer(Server* srv, MsgKind kind, int payload_bytes,
                    F&& deliver) {
    ctx_.transport.Send(static_cast<NodeId>(id_), srv->node(), kind,
                        payload_bytes, std::forward<F>(deliver));
  }
  /// The server owning `page` under the configured partitioning.
  Server* ServerFor(storage::PageId page) const {
    return servers_[static_cast<std::size_t>(ctx_.params.ServerOfPage(page))];
  }
  /// Sends an (immediate or deferred) callback response to the server.
  void ReplyCallback(const std::shared_ptr<CallbackBatch>& batch,
                     CallbackReply reply);

  storage::PageId PageOf(storage::ObjectId oid) const {
    return ctx_.db.layout().PageOf(oid);
  }
  int SlotOf(storage::ObjectId oid) const {
    return ctx_.db.layout().SlotOf(oid);
  }

  SystemContext& ctx_;
  storage::ClientId id_;
  std::vector<Server*> servers_;
  resources::Cpu cpu_;
  workload::TransactionSource source_;
  sim::Rng rng_;  ///< restart backoff jitter

  storage::TxnId txn_ = storage::kNoTxn;
  bool txn_active_ = false;
  /// Set for the duration of Commit() / Abort() (cleared by EndTxnLocal).
  bool txn_committing_ = false;
  bool txn_aborting_ = false;
  cc::LocalTxnLocks locks_;
  /// First-read versions for the history record, one per object read, in
  /// read order; filled only when a history is kept.
  std::vector<std::pair<storage::ObjectId, storage::Version>> read_versions_;
  std::vector<sim::InlineFunction> deferred_;

  /// Client-side phase accumulator for the current commit cycle (think,
  /// backoff, per-RPC network; aborted attempts' server phases are folded in
  /// on restart). Only touched when ctx_.tracer != nullptr.
  trace::Breakdown cycle_;
  double rpc_start_ = 0;
  double rpc_server0_ = 0;
};

/// Shared base of the five page-transfer clients (PS, PS-OO, PS-OA, PS-AA,
/// PS-WT). Read, FetchFor and Write, with their kReadReq and kWriteReq, are
/// the same for all of them; a protocol supplies its answer to a callback
/// and how a grant maps to local write locks (ApplyGrant).
class PageFamilyClient : public Client {
 public:
  PageFamilyClient(SystemContext& ctx, storage::ClientId id,
                   const config::WorkloadParams& workload,
                   std::vector<Server*> servers);

  storage::PageCache& cache() { return cache_; }

  const storage::PageFrame* PeekPage(storage::PageId page) const override {
    return cache_.Peek(page);
  }
  void ForEachCachedPage(
      const std::function<void(storage::PageId, const storage::PageFrame&)>&
          fn) const override {
    cache_.ForEach(fn);
  }

 protected:
  // --- Protocol hooks ------------------------------------------------------
  /// Records a write grant for `oid`: a page grant gives a page write lock,
  /// an object grant an object write lock.
  virtual void ApplyGrant(storage::ObjectId oid, GrantLevel level);

  /// Reads `oid`, fetching its page until the object is available.
  sim::Task Read(storage::ObjectId oid) PSOODB_ACQUIRES(pin) override;
  /// Reads `oid`, obtains write permission unless already held (applying
  /// the page image a PS-WT token handoff ships with the grant), and marks
  /// the local update.
  sim::Task Write(storage::ObjectId oid) PSOODB_ACQUIRES(pin) override;
  /// Fetches the page containing `oid` until the object is readable (a
  /// callback can purge the page, or mark the object unavailable, while an
  /// arriving ship's merge cost is being charged).
  sim::Task FetchFor(storage::ObjectId oid);

  /// True if `oid` can be read from the local cache right now.
  bool CachedAvailable(storage::ObjectId oid) const;

  /// Applies an arriving page ship to the cache: insert or merge (local
  /// uncommitted updates win), then charges CopyMergeInst per merged
  /// object. An evicted page costs an eviction notice.
  sim::Task ApplyShip(PageShip ship);

  /// Marks a local update of `oid` in the cached frame (which must exist).
  void MarkLocalWrite(storage::ObjectId oid) PSOODB_ACQUIRES(pin);

  /// The cached frame's dirty slots and pending growth, if it is dirty.
  void CollectUpdate(storage::PageId page, storage::SlotMask written,
                     std::vector<PageUpdate>& updates) const override;
  /// Whole pages, or one log record plus object image per updated object
  /// under redo-at-server.
  int CommitPayload(const std::vector<PageUpdate>& updates) const override;
  void ApplyCommitted(const CommitAck& ack) override;
  /// Drops the page if its cached frame is dirty.
  void PurgeUpdate(storage::PageId page, storage::SlotMask written,
                   PurgedItems& purged) override;

  /// Local read bookkeeping once `oid` is cached and available.
  void LocalRead(storage::ObjectId oid) PSOODB_ACQUIRES(pin);

  /// Tells the owning server that the (clean) evicted `page` is gone.
  void HandleEviction(storage::PageId page, const storage::PageFrame& frame);

  /// Unpins every page the transaction read.
  void UnpinAll() PSOODB_RELEASES(pin) override;

  storage::PageCache cache_;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_CLIENT_H_
