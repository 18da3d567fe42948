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

/// Writes take the shared object-lock write (Server::HandleWrite).
class PsOoServer : public PageServer {
 public:
  using PageServer::PageServer;

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
  /// Ships the page with every object write-locked by another transaction
  /// marked unavailable, registering each available object.
  sim::Task HandleRead(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client, sim::Promise<PageShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES override;
};

class PsOoClient : public PageFamilyClient {
 public:
  using PageFamilyClient::PageFamilyClient;

  /// Marks the object unavailable; the rest of the page stays usable.
  void OnCallback(storage::PageId page, storage::ObjectId oid,
                  storage::TxnId requester,
                  std::shared_ptr<CallbackBatch> batch) override;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_PS_OO_H_
