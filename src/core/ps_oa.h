/// \file ps_oa.h
/// PS-OA — page server with object-level locking and *adaptive* callbacks
/// (Section 3.3.2). Locking is identical to PS-OO, but the server tracks
/// cached copies at page granularity and a callback purges the whole page
/// when no object on it is in use by the client's active transaction,
/// avoiding PS-OO's object-at-a-time callback streams.

#ifndef PSOODB_CORE_PS_OA_H_
#define PSOODB_CORE_PS_OA_H_

#include "core/client.h"
#include "core/server.h"

namespace psoodb::core {

class PsOaServer : public PageServer {
 public:
  using PageServer::PageServer;

 protected:
  bool CommitReplacesPage(storage::TxnId, storage::PageId) const override {
    return false;
  }

 private:
  /// Ships the page with other transactions' write-locked objects marked
  /// unavailable; one page-granularity registration.
  sim::Task HandleRead(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client, sim::Promise<PageShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES override;
  /// The object-lock write, calling back page copies (adaptive callbacks).
  sim::Task HandleWrite(storage::ObjectId oid, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply)
      PSOODB_ACQUIRES(lock) PSOODB_REPLIES override;
};

/// Also the base of PsAaClient: both answer adaptive callbacks the same way.
class PsOaClient : public PageFamilyClient {
 public:
  using PageFamilyClient::PageFamilyClient;

  /// Purges the whole page if the active transaction uses nothing on it,
  /// answers "in use" if it read `oid`, and otherwise marks only `oid`
  /// unavailable.
  void OnCallback(storage::PageId page, storage::ObjectId oid,
                  storage::TxnId requester,
                  std::shared_ptr<CallbackBatch> batch) override;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_PS_OA_H_
