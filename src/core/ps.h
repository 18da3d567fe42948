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

class PsServer : public PageServer {
 public:
  using PageServer::PageServer;

 protected:
  bool CommitReplacesPage(storage::TxnId, storage::PageId) const override {
    // The committer held a page X lock: its copy is the whole truth.
    return true;
  }

 private:
  /// Ships the whole page once no other transaction write-locks it.
  sim::Task HandleRead(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client, sim::Promise<PageShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES override;
  /// Page X lock, page callbacks, page grant.
  sim::Task HandleWrite(storage::ObjectId oid, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply)
      PSOODB_ACQUIRES(lock) PSOODB_REPLIES override;
};

class PsClient : public PageFamilyClient {
 public:
  using PageFamilyClient::PageFamilyClient;

  /// Purges the page unless the active transaction uses it.
  void OnCallback(storage::PageId page, storage::ObjectId oid,
                  storage::TxnId requester,
                  std::shared_ptr<CallbackBatch> batch) override;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_PS_H_
