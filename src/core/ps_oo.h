/// \file ps_oo.h
/// PS-OO — page server with static object-level locking and object-level
/// callbacks (Section 3.3.1). Pages are the transfer unit; concurrency
/// control and replica management are per object. Objects write-locked by
/// other clients are shipped marked "unavailable"; concurrent updates to
/// different objects of a page are merged at commit.

#ifndef PSOODB_CORE_PS_OO_H_
#define PSOODB_CORE_PS_OO_H_

#include "core/client.h"
#include "core/server.h"

namespace psoodb::core {

class PsOoServer : public Server {
 public:
  using Server::Server;

  void OnObjectReadReq(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client,
                       sim::Promise<PageShip> reply) PSOODB_REPLIES;
  void OnObjectWriteReq(storage::ObjectId oid, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply) PSOODB_REPLIES;

  /// Object-granularity copy tracking: dropping a page drops every object
  /// copy the client held on it.
  void OnClientDroppedPage(storage::PageId page,
                           storage::ClientId client) override;

 protected:
  bool CommitReplacesPage(storage::TxnId, storage::PageId) const override {
    return false;  // object-level locks: commit merges
  }
  void OnAbortPurge(storage::TxnId txn, storage::ClientId client,
                    const std::vector<storage::PageId>& pages,
                    const std::vector<storage::ObjectId>& objects) override;

  /// Registers `client`'s copy of every object of `page` not write-locked
  /// by another transaction and builds the ship, with the others marked
  /// unavailable (the caller charges RegisterCopyInst per available object
  /// beforehand). Call with the page buffered, with no suspension between
  /// the caller's last conflict check and the ship's send.
  PageShip ShipAvailableObjects(storage::PageId page, storage::TxnId txn,
                                storage::ClientId client)
      PSOODB_ACQUIRES(copy);

 private:
  // HandleRead leaves the shipped objects registered in the copy table;
  // HandleWrite leaves the object X lock held until commit/abort.
  sim::Task HandleRead(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client,
                       sim::Promise<PageShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES;
  sim::Task HandleWrite(storage::ObjectId oid, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply)
      PSOODB_ACQUIRES(lock) PSOODB_REPLIES;
};

class PsOoClient : public PageFamilyClient {
 public:
  using PageFamilyClient::PageFamilyClient;

  void OnObjectCallback(storage::ObjectId oid, storage::PageId page,
                        storage::TxnId requester,
                        std::shared_ptr<CallbackBatch> batch) override;

 protected:
  void RequestPage(storage::ObjectId oid,
                   sim::Promise<PageShip> reply) override;
  void RequestWrite(storage::ObjectId oid,
                    sim::Promise<WriteGrant> reply) override;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_PS_OO_H_
