/// \file ps.h
/// PS — the basic page server (Section 3.2.1). Data transfer, concurrency
/// control and replica management all happen at page granularity using the
/// page-level Callback-Read algorithm: cached pages are always valid and
/// readable without server intervention; updating a page requires a server
/// write lock, granted after all remote copies have been called back.

#ifndef PSOODB_CORE_PS_H_
#define PSOODB_CORE_PS_H_

#include "core/client.h"
#include "core/server.h"

namespace psoodb::core {

class PsServer : public Server {
 public:
  using Server::Server;

  /// Client entry: request a copy of `page` for reading.
  void OnPageReadReq(storage::PageId page, storage::TxnId txn,
                     storage::ClientId client,
                     sim::Promise<PageShip> reply) PSOODB_REPLIES;
  /// Client entry: request a page write lock.
  void OnPageWriteReq(storage::PageId page, storage::TxnId txn,
                      storage::ClientId client,
                      sim::Promise<WriteGrant> reply) PSOODB_REPLIES;

 protected:
  bool CommitReplacesPage(storage::TxnId, storage::PageId) const override {
    // The committer held a page X lock: its copy is the whole truth.
    return true;
  }

 private:
  // HandleRead leaves the page registered in the copy table (the
  // registration *is* the client's read permission); HandleWrite leaves the
  // page X lock held until commit/abort.
  sim::Task HandleRead(storage::PageId page, storage::TxnId txn,
                       storage::ClientId client,
                       sim::Promise<PageShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES;
  sim::Task HandleWrite(storage::PageId page, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply)
      PSOODB_ACQUIRES(lock) PSOODB_REPLIES;
};

class PsClient : public PageFamilyClient {
 public:
  using PageFamilyClient::PageFamilyClient;

  void OnPageCallback(storage::PageId page, storage::TxnId requester,
                      std::shared_ptr<CallbackBatch> batch) override;

 protected:
  void RequestPage(storage::ObjectId oid,
                   sim::Promise<PageShip> reply) override;
  void RequestWrite(storage::ObjectId oid,
                    sim::Promise<WriteGrant> reply) override;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_PS_H_
