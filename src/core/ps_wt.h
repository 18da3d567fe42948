/// \file ps_wt.h
/// PS-WT — page server with object locking and a *write token* per page,
/// the merge-free alternative the paper defers to future work (Section 6.1,
/// following [Li89] / [Moha91]). Serializability still comes from strict
/// object-level two-phase locking (as in PS-OO), but concurrent updates to
/// a page are disallowed: only the page's current token owner may update
/// it. When another client wants to update the page, the token is recalled
/// — the owner flushes its current page image through the server (staging
/// uncommitted updates) and the server forwards the image to the new owner
/// with the grant. The commit path therefore never merges page copies; the
/// price is page-sized messages on every inter-client update handoff.
///
/// The token is pure server-side bookkeeping: it tracks where the freshest
/// page image lives and shapes message traffic. Ownership follows the
/// cached copy (dropping the page drops the token).

#ifndef PSOODB_CORE_PS_WT_H_
#define PSOODB_CORE_PS_WT_H_

#include <unordered_map>

#include "core/ps_oo.h"

namespace psoodb::core {

class PsWtServer : public PsOoServer {
 public:
  using PsOoServer::PsOoServer;

  /// Dropping a page copy surrenders its token.
  void OnClientDroppedPage(storage::PageId page,
                           storage::ClientId client) override;

  storage::ClientId TokenOwner(storage::PageId page) const {
    auto it = token_owner_.find(page);
    return it == token_owner_.end() ? storage::kNoClient : it->second;
  }

 protected:
  bool CommitReplacesPage(storage::TxnId, storage::PageId) const override {
    // Updates reach the server serialized by token ownership; installs are
    // per-object but no copy merging across clients is ever needed. Keep
    // the object-granularity install path (it models the same work).
    return false;
  }

 private:
  /// The object-lock write plus the token check: a handoff recalls the
  /// page from its owner and ships the image with the grant (WriteGrant::
  /// ship), registering the shipped objects in the copy table.
  sim::Task HandleWrite(storage::ObjectId oid, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply)
      PSOODB_ACQUIRES(lock) PSOODB_ACQUIRES(copy) PSOODB_REPLIES override;

  std::unordered_map<storage::PageId, storage::ClientId> token_owner_;
};

class PsWtClient : public PsOoClient {
 public:
  using PsOoClient::PsOoClient;

  void OnTokenRecall(storage::PageId page, sim::Promise<bool> done) override;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_PS_WT_H_
