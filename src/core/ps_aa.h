/// \file ps_aa.h
/// PS-AA — page server with adaptive locking *and* adaptive callbacks
/// (Section 3.3.3). In the absence of conflicts it behaves like the basic
/// page server (page write locks, page callbacks). On conflict, page write
/// locks are *de-escalated*: the holder acquires object X locks for the
/// objects it actually updated and releases the page lock. Write requests
/// re-escalate opportunistically: if every remote copy of the page could be
/// invalidated and no other object locks exist on it, the requester receives
/// a page write lock; otherwise only the object lock.

#ifndef PSOODB_CORE_PS_AA_H_
#define PSOODB_CORE_PS_AA_H_

#include "core/ps_oa.h"

namespace psoodb::core {

class PsAaServer : public PageServer {
 public:
  using PageServer::PageServer;

 protected:
  bool CommitReplacesPage(storage::TxnId txn,
                          storage::PageId page) const override {
    // Replace wholesale iff the committer still holds the page X lock;
    // de-escalated or object-granted pages are merged.
    return lm_.PageXHolder(page) == txn;
  }

  /// Resolves a page-level write-lock conflict by asking the holding client
  /// to de-escalate: it reports the objects it has updated on `page`, which
  /// receive object X locks, and the page lock is released (Section 3.3.3).
  /// `requester` is the transaction waiting on the conflict (the round-trip
  /// is attributed to it as callback wait in traces).
  ///
  /// Deliberately carries no obligation annotation: the lock work it does
  /// (GrantObjectXDirect for the written objects, then ReleasePageX) is
  /// balanced on every path, and psoodb-analyze's lock-leak check proves it.
  sim::Task DeEscalate(storage::PageId page, storage::TxnId holder,
                       storage::TxnId requester);

 private:
  /// Ships the page once no other transaction write-locks it or `oid`,
  /// de-escalating a page lock in the way.
  sim::Task HandleRead(storage::ObjectId oid, storage::TxnId txn,
                       storage::ClientId client, sim::Promise<PageShip> reply)
      PSOODB_ACQUIRES(copy) PSOODB_REPLIES override;
  /// Stakes an object X lock, calls back page copies (adaptive callbacks),
  /// and re-escalates to a page lock when nothing else is left on the page.
  sim::Task HandleWrite(storage::ObjectId oid, storage::TxnId txn,
                        storage::ClientId client,
                        sim::Promise<WriteGrant> reply)
      PSOODB_ACQUIRES(lock) PSOODB_REPLIES override;

  /// Waits out page/object conflicts for (oid, page) on behalf of txn,
  /// de-escalating page locks as needed. On return no *other* transaction
  /// holds a page X lock on `page` or an object X lock on `oid`, and — when
  /// `buffer_page` — the page is in the buffer pool; all checks hold with no
  /// intervening suspension.
  sim::Task ResolveConflicts(storage::ObjectId oid, storage::PageId page,
                             storage::TxnId txn, bool buffer_page);
};

/// Answers adaptive callbacks as PS-OA does; adds de-escalation and
/// page-level write grants.
class PsAaClient : public PsOaClient {
 public:
  using PsOaClient::PsOaClient;

  void OnDeEscalate(storage::PageId page,
                    sim::Promise<std::vector<storage::ObjectId>> reply)
      override;

 protected:
  /// A page grant also stakes the object lock the server took first.
  void ApplyGrant(storage::ObjectId oid, GrantLevel level) override;
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_PS_AA_H_
