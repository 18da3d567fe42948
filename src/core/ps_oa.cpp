#include "core/ps_oa.h"

#include "check/invariants.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

sim::Task PsOaServer::HandleRead(ObjectId oid, TxnId txn, ClientId client,
                                 sim::Promise<PageShip> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    // Page-granularity replica tracking: one registration per ship. Costs
    // up front so the final check-register-ship runs without suspension.
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst +
                         ctx_.params.register_copy_inst);
  }
  if (const bool aborted = co_await WaitObjectReadable(oid, page, txn);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }
  page_copies_.Register(page, client);
  PageShip ship = MakeShip(page, UnavailableMask(page, txn));
  SendToClient(client, MsgKind::kDataReply,
               ctx_.transport.DataBytes(ctx_.params.page_size_bytes),
               [reply = std::move(reply), ship = std::move(ship)]() mutable {
                 reply.Set(std::move(ship));
               });
}

sim::Task PsOaServer::HandleWrite(ObjectId oid, TxnId txn, ClientId client,
                                  sim::Promise<WriteGrant> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst);
  }
  if (const bool aborted = co_await lm_.AcquireObjectX(oid, page, txn, client);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }
  if (const bool aborted = co_await CallbackRound(page_copies_, page, client,
                                                  txn, page, oid);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }
  if (ctx_.invariants != nullptr) {
    ctx_.invariants->OnWriteGrant(*this, GrantLevel::kObject, page, oid, txn,
                                  client);
  }
  SendToClient(client, MsgKind::kControlReply, ctx_.transport.ControlBytes(),
               [reply = std::move(reply)]() mutable {
                 reply.Set(WriteGrant{GrantLevel::kObject, false,
                                      std::nullopt});
               });
}

// --- Client ------------------------------------------------------------------

void PsOaClient::OnCallback(PageId page, ObjectId oid, TxnId /*requester*/,
                            std::shared_ptr<CallbackBatch> batch) {
  storage::PageFrame* f = cache_.Peek(page);
  if (f == nullptr) {
    ReplyCallback(batch, {CallbackOutcome::kNotCached, kNoTxn});
    return;
  }
  if (txn_active_ && locks_.UsesPage(page)) {
    if (locks_.ReadsObject(oid)) {
      // The requested object itself is in use: block until transaction end,
      // then drop the whole page (nothing is in use anymore).
      ReplyCallback(batch, {CallbackOutcome::kInUse, txn_});
      Defer([this, page, batch]() {
        CallbackOutcome out = CallbackOutcome::kNotCached;
        if (cache_.Peek(page) != nullptr) {
          cache_.Remove(page);
          ++ctx_.counters.callback_page_purges;
          out = CallbackOutcome::kPurged;
        }
        ReplyCallback(batch, {out, kNoTxn});
      });
      return;
    }
    // Page in use through other objects: de-escalated callback — keep the
    // page, mark only the requested object unavailable.
    f->MarkUnavailable(SlotOf(oid));
    ++ctx_.counters.callback_object_marks;
    ReplyCallback(batch, {CallbackOutcome::kRetained, kNoTxn});
    return;
  }
  // Nothing on the page is in use: purge it entirely (Section 3.3.2).
  cache_.Remove(page);
  ++ctx_.counters.callback_page_purges;
  ReplyCallback(batch, {CallbackOutcome::kPurged, kNoTxn});
}

}  // namespace psoodb::core
