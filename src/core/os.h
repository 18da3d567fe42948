/// \file os.h
/// OS — the basic object server (Section 3.2.2). Data transfer, concurrency
/// control and replica management all happen at object granularity: clients
/// cache individual objects (LRU over ClientBufSize x ObjectsPerPage
/// objects), the server ships single objects, and callbacks invalidate
/// single cached objects.

#ifndef PSOODB_CORE_OS_H_
#define PSOODB_CORE_OS_H_

#include "core/client.h"
#include "core/server.h"

namespace psoodb::core {

class OsServer : public Server {
 public:
  using Server::Server;

  /// Client entry: request a copy of `oid`. (Writes take the shared
  /// object-lock write, Server::HandleWrite.)
  void OnObjectReadReq(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client,
                       sim::Promise<ObjectShip> reply) PSOODB_REPLIES;

 protected:
  bool CommitReplacesPage(storage::TxnId, storage::PageId) const override {
    // Object-granularity installs: updated objects are applied to the
    // buffered base page (reading it from disk if absent).
    return false;
  }

 private:
  // HandleRead leaves the object registered in the copy table.
  sim::Task HandleRead(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client,
                       sim::Promise<ObjectShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES;
};

class OsClient : public Client {
 public:
  OsClient(SystemContext& ctx, storage::ClientId id,
           const config::WorkloadParams& workload,
           std::vector<Server*> servers);

  /// Drops the object unless the active transaction read it.
  void OnCallback(storage::PageId page, storage::ObjectId oid,
                  storage::TxnId requester,
                  std::shared_ptr<CallbackBatch> batch) override;

  storage::ObjectCache& cache() { return cache_; }

  const storage::ObjectFrame* PeekObject(storage::ObjectId oid) const override {
    return cache_.Peek(oid);
  }
  void ForEachCachedObject(
      const std::function<void(storage::ObjectId,
                               const storage::ObjectFrame&)>& fn)
      const override {
    cache_.ForEach(fn);
  }

 protected:
  sim::Task Read(storage::ObjectId oid) PSOODB_ACQUIRES(pin) override;
  sim::Task Write(storage::ObjectId oid) PSOODB_ACQUIRES(pin) override;

  /// The page's written objects, as one update.
  void CollectUpdate(storage::PageId page, storage::SlotMask written,
                     std::vector<PageUpdate>& updates) const override;
  /// One object image per updated object.
  int CommitPayload(const std::vector<PageUpdate>& updates) const override;
  void ApplyCommitted(const CommitAck& ack) override;
  /// Drops the page's written objects.
  void PurgeUpdate(storage::PageId page, storage::SlotMask written,
                   PurgedItems& purged) override;

 private:
  /// Fetches `oid` into the cache; ends aborted on an aborted ship.
  sim::Task FetchObject(storage::ObjectId oid);
  /// Tells the owning server that the evicted `oid` (which the transaction
  /// did not write) is gone.
  void HandleEviction(storage::ObjectId oid);
  /// Unpins every object the transaction read.
  void UnpinAll() PSOODB_RELEASES(pin) override;

  storage::ObjectCache cache_;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_OS_H_
