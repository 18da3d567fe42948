#include "core/ps_wt.h"


#include "cc/abort.h"
#include "check/invariants.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoClient;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::SlotMask;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

void PsWtServer::OnTokenWriteReq(ObjectId oid, TxnId txn, ClientId client,
                                 sim::Promise<TokenWriteGrant> reply) {
  ctx_.sim.Spawn(HandleWrite(oid, txn, client, std::move(reply)));
}

void PsWtServer::OnClientDroppedPage(PageId page, ClientId client) {
  PsOoServer::OnClientDroppedPage(page, client);
  auto it = token_owner_.find(page);
  if (it != token_owner_.end() && it->second == client) {
    token_owner_.erase(it);
  }
}

sim::Task PsWtServer::HandleWrite(ObjectId oid, TxnId txn, ClientId client,
                                  sim::Promise<TokenWriteGrant> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  try {
    {
      trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
      co_await cpu_.System(ctx_.params.lock_inst);
    }
    // Serializability: strict 2PL at object granularity, as in PS-OO.
    co_await lm_.AcquireObjectX(oid, page, txn, client);

    // Invalidate remote cached copies of the object (PS-OO callbacks).
    co_await CallbackRound(
        object_copies_, oid, client, txn, page, oid,
        [this, oid, page, txn](ClientId c,
                               const std::shared_ptr<CallbackBatch>& batch) {
          SendToClient(c, MsgKind::kCallbackReq, ctx_.transport.ControlBytes(),
                       [cl = this->client(c), oid, page, txn, batch]() {
                         cl->OnObjectCallback(oid, page, txn, batch);
                       });
        });

    // Write-token check: a different owner must surrender the page, routing
    // the current page image through the server.
    bool shipped = false;
    PageShip ship;
    const ClientId owner = TokenOwner(page);
    if (owner != kNoClient && owner != client) {
      ++ctx_.counters.token_transfers;
      sim::Promise<bool> flushed(ctx_.sim);
      auto fut = flushed.GetFuture();
      SendToClient(owner, MsgKind::kTokenRecall,
                   ctx_.transport.ControlBytes(),
                   [cl = this->client(owner), page,
                    flushed = std::move(flushed)]() mutable {
                     cl->OnTokenRecall(page, std::move(flushed));
                   });
      const double recall_start = ctx_.sim.now();
      co_await std::move(fut);
      if (ctx_.tracer != nullptr) {
        // The requester is stalled for the recall round trip, like a
        // callback round.
        const double dt = ctx_.sim.now() - recall_start;
        ctx_.tracer->Attribute(txn, trace::Phase::kCallbackWait, dt);
        ctx_.tracer->EmitSpan(recall_start, dt,
                              trace::EventKind::kTokenRecall, node_, txn,
                              page, -1, -1, owner);
      }
      token_owner_[page] = client;
      co_await EnsureBuffered(page, /*load=*/true, txn);
      // Ship the freshest image with the grant; objects write-locked by
      // other transactions travel marked unavailable.
      const int avail = ctx_.params.objects_per_page -
                        storage::PopCount(UnavailableMask(page, txn));
      {
        trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
        co_await cpu_.System(ctx_.params.register_copy_inst * avail);
      }
      ship = ShipAvailableObjects(page, txn, client);
      shipped = true;
    } else {
      token_owner_[page] = client;
    }

    if (ctx_.invariants != nullptr) {
      ctx_.invariants->OnWriteGrant(*this, GrantLevel::kObject, page, oid,
                                    txn, client);
    }
    const int bytes = shipped
                          ? ctx_.transport.DataBytes(ctx_.params.page_size_bytes)
                          : ctx_.transport.ControlBytes();
    SendToClient(client, shipped ? MsgKind::kDataReply : MsgKind::kControlReply,
                 bytes,
                 [reply = std::move(reply), shipped,
                  ship = std::move(ship)]() mutable {
                   reply.Set(TokenWriteGrant{false, shipped, std::move(ship)});
                 });
  } catch (const cc::TxnAborted&) {
    ReplyAborted(client, std::move(reply));
  }
}

// --- Client ------------------------------------------------------------------

void PsWtClient::OnTokenRecall(PageId page, sim::Promise<bool> done) {
  storage::PageFrame* f = cache_.Peek(page);
  if (f == nullptr) {
    // Copy already gone (eviction notice in flight); nothing to flush.
    SendToServer(ServerFor(page), MsgKind::kCallbackAck,
                 ctx_.transport.ControlBytes(),
                 [done = std::move(done)]() mutable { done.Set(true); });
    return;
  }
  // Flush the current image through the server. Uncommitted updates are
  // staged under this client's active transaction (they remain this
  // transaction's writes; the page stays cached as a readable copy).
  Server* srv = ServerFor(page);
  const SlotMask dirty = f->dirty;
  const TxnId txn = txn_;
  f->dirty = 0;
  SendToServer(srv, MsgKind::kTokenFlush,
               ctx_.transport.DataBytes(ctx_.params.page_size_bytes),
               [srv, txn, page, dirty, done = std::move(done)]() mutable {
                 if (dirty != 0) srv->OnDirtyInstall(txn, page, dirty);
                 done.Set(true);
               });
}

sim::Task PsWtClient::Write(ObjectId oid) {
  co_await Read(oid);
  if (!locks_.HasObjectWrite(oid)) {
    sim::Promise<TokenWriteGrant> pr(ctx_.sim);
    auto fut = pr.GetFuture();
    PsWtServer* srv = ServerFor<PsWtServer>(PageOf(oid));
    SendToServer(srv, MsgKind::kWriteReq, ctx_.transport.ControlBytes(),
                 [srv, oid, txn = txn_, from = id_,
                  pr = std::move(pr)]() mutable {
                   srv->OnTokenWriteReq(oid, txn, from, std::move(pr));
                 });
    BeginRpc();
    TokenWriteGrant grant = co_await std::move(fut);
    EndRpc();
    if (grant.aborted) throw cc::TxnAborted(txn_, cc::AbortReason::kVictim);
    if (grant.with_page) co_await ApplyShip(std::move(grant.page));
    locks_.GrantObjectWrite(oid);
  }
  if (!CachedAvailable(oid)) co_await FetchFor(oid);
  MarkLocalWrite(oid);
}

}  // namespace psoodb::core
