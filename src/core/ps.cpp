#include "core/ps.h"

#include "check/invariants.h"
#include "util/check.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

sim::Task PsServer::HandleRead(ObjectId oid, TxnId txn, ClientId client,
                               sim::Promise<PageShip> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    // Charge the request's CPU costs up front so the final
    // check-register-ship sequence below runs without suspension.
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst +
                         ctx_.params.register_copy_inst);
  }
  for (;;) {
    // Block while any other transaction holds a page write lock.
    if (const bool aborted = co_await lm_.WaitPageFree(page, txn); aborted) {
      ReplyAborted(client, std::move(reply));
      co_return;
    }
    co_await EnsureBuffered(page, /*load=*/true, txn);
    TxnId holder = lm_.PageXHolder(page);  // disk read may have let one in
    if (holder == kNoTxn || holder == txn) break;
  }
  // Registration, version gathering, and send are a single atomic step so
  // later callbacks cannot overtake this ship on the wire.
  page_copies_.Register(page, client);
  PageShip ship = MakeShip(page, /*unavailable=*/0);
  SendToClient(client, MsgKind::kDataReply,
               ctx_.transport.DataBytes(ctx_.params.page_size_bytes),
               [reply = std::move(reply), ship = std::move(ship)]() mutable {
                 reply.Set(std::move(ship));
               });
}

sim::Task PsServer::HandleWrite(ObjectId oid, TxnId txn, ClientId client,
                                sim::Promise<WriteGrant> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst);
  }
  if (const bool aborted = co_await lm_.AcquirePageX(page, txn, client);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }
  if (const bool aborted = co_await CallbackRound(page_copies_, page, client,
                                                  txn, page, /*oid=*/-1);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }
  if (ctx_.invariants != nullptr) {
    ctx_.invariants->OnWriteGrant(*this, GrantLevel::kPage, page, /*oid=*/-1,
                                  txn, client);
  }
  SendToClient(client, MsgKind::kControlReply, ctx_.transport.ControlBytes(),
               [reply = std::move(reply)]() mutable {
                 reply.Set(WriteGrant{GrantLevel::kPage, false, std::nullopt});
               });
}

// --- Client ------------------------------------------------------------------
// PS frames never carry unavailable slots (ships have mask 0 and page
// callbacks purge whole pages), so the shared read path's "object
// available" test is exactly "page cached".

void PsClient::OnCallback(PageId page, ObjectId /*oid*/, TxnId /*requester*/,
                          std::shared_ptr<CallbackBatch> batch) {
  storage::PageFrame* f = cache_.Peek(page);
  if (f == nullptr) {
    ReplyCallback(batch, {CallbackOutcome::kNotCached, kNoTxn});
    return;
  }
  if (txn_active_ && locks_.UsesPage(page)) {
    // Local lock conflict: respond "in use" and finish when the transaction
    // ends (Section 3.2.1).
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
  PSOODB_CHECK(!f->IsDirty(), "dirty page %d without active transaction",
               page);
  cache_.Remove(page);
  ++ctx_.counters.callback_page_purges;
  ReplyCallback(batch, {CallbackOutcome::kPurged, kNoTxn});
}

}  // namespace psoodb::core
