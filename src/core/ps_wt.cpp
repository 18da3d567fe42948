#include "core/ps_wt.h"

#include "check/invariants.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoClient;
using storage::ObjectId;
using storage::PageId;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

void PsWtServer::OnClientDroppedPage(PageId page, ClientId client) {
  PsOoServer::OnClientDroppedPage(page, client);
  auto it = token_owner_.find(page);
  if (it != token_owner_.end() && it->second == client) {
    token_owner_.erase(it);
  }
}

sim::Task PsWtServer::HandleWrite(ObjectId oid, TxnId txn, ClientId client,
                                  sim::Promise<WriteGrant> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst);
  }
  // Serializability: strict 2PL at object granularity, as in PS-OO.
  if (const bool aborted = co_await lm_.AcquireObjectX(oid, page, txn, client);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }

  // Invalidate remote cached copies of the object (PS-OO callbacks).
  if (const bool aborted = co_await CallbackRound(object_copies_, oid, client,
                                                  txn, page, oid);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }

  // Write-token check: a different owner must surrender the page, routing
  // the current page image through the server.
  std::optional<PageShip> ship;
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
  } else {
    token_owner_[page] = client;
  }

  if (ctx_.invariants != nullptr) {
    ctx_.invariants->OnWriteGrant(*this, GrantLevel::kObject, page, oid,
                                  txn, client);
  }
  const bool shipped = ship.has_value();
  const int bytes = shipped
                        ? ctx_.transport.DataBytes(ctx_.params.page_size_bytes)
                        : ctx_.transport.ControlBytes();
  SendToClient(client, shipped ? MsgKind::kDataReply : MsgKind::kControlReply,
               bytes,
               [reply = std::move(reply), ship = std::move(ship)]() mutable {
                 reply.Set(WriteGrant{GrantLevel::kObject, false,
                                      std::move(ship)});
               });
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
  // Flush the current image through the server. Uncommitted updates, with
  // their object growth, are staged under this client's active transaction
  // (they remain this transaction's writes; the page stays cached as a
  // readable copy). A terminating transaction's kCommitReq (which already
  // carries these slots) or kAbortReq has left, and per-pair FIFO delivery
  // puts this flush behind it, where a staged entry would never be folded
  // or discarded: that flush stages nothing.
  Server* srv = ServerFor(page);
  const PageUpdate flushed{page, f->dirty, f->pending_growth};
  const TxnId txn = txn_;
  const bool stage = flushed.dirty != 0 && !terminating();
  f->dirty = 0;
  f->pending_growth = 0;
  SendToServer(srv, MsgKind::kTokenFlush,
               ctx_.transport.DataBytes(ctx_.params.page_size_bytes),
               [srv, txn, flushed, stage, done = std::move(done)]() mutable {
                 if (stage) srv->OnDirtyInstall(txn, flushed);
                 done.Set(true);
               });
}

}  // namespace psoodb::core
