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

class PsOaServer : public Server {
 public:
  using Server::Server;

  void OnObjectReadReq(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client,
                       sim::Promise<PageShip> reply) PSOODB_REPLIES;
  void OnObjectWriteReq(storage::ObjectId oid, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply) PSOODB_REPLIES;

 protected:
  bool CommitReplacesPage(storage::TxnId, storage::PageId) const override {
    return false;
  }

 private:
  // Same obligations as PS-OO: the copy registration and the object X lock
  // intentionally outlive the handlers.
  sim::Task HandleRead(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client,
                       sim::Promise<PageShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES;
  sim::Task HandleWrite(storage::ObjectId oid, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply)
      PSOODB_ACQUIRES(lock) PSOODB_REPLIES;
};

/// Also the base of PsAaClient: both answer adaptive callbacks the same way.
class PsOaClient : public PageFamilyClient {
 public:
  using PageFamilyClient::PageFamilyClient;

  void OnAdaptiveCallback(storage::PageId page, storage::ObjectId oid,
                          storage::TxnId requester,
                          std::shared_ptr<CallbackBatch> batch) override;

 protected:
  void RequestPage(storage::ObjectId oid,
                   sim::Promise<PageShip> reply) override;
  void RequestWrite(storage::ObjectId oid,
                    sim::Promise<WriteGrant> reply) override;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_PS_OA_H_
