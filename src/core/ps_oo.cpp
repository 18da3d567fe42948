#include "core/ps_oo.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::SlotMask;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

void PsOoServer::OnClientDroppedPage(PageId page, ClientId client) {
  const auto& layout = ctx_.db.layout();
  for (int s = 0; s < ctx_.params.objects_per_page; ++s) {
    object_copies_.Unregister(layout.ObjectAt(page, s), client);
  }
}

void PsOoServer::OnAbortPurge(TxnId txn, ClientId client,
                              const std::vector<PageId>& pages,
                              const std::vector<ObjectId>& objects) {
  (void)txn;
  for (PageId p : pages) OnClientDroppedPage(p, client);
  for (ObjectId o : objects) object_copies_.Unregister(o, client);
}

PageShip PsOoServer::ShipAvailableObjects(PageId page, TxnId txn,
                                          ClientId client) {
  const SlotMask unavailable = UnavailableMask(page, txn);
  const auto& layout = ctx_.db.layout();
  for (int s = 0; s < ctx_.params.objects_per_page; ++s) {
    if ((unavailable & storage::SlotBit(s)) == 0) {
      object_copies_.Register(layout.ObjectAt(page, s), client);
    }
  }
  return MakeShip(page, unavailable);
}

sim::Task PsOoServer::HandleRead(ObjectId oid, TxnId txn, ClientId client,
                                 sim::Promise<PageShip> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst);
  }
  do {
    if (const bool aborted = co_await WaitObjectReadable(oid, page, txn);
        aborted) {
      ReplyAborted(client, std::move(reply));
      co_return;
    }
    // Object-granularity registration for every available object shipped
    // — a real per-object cost of fine-grained replica management.
    const int est = ctx_.params.objects_per_page -
                    storage::PopCount(UnavailableMask(page, txn));
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.register_copy_inst * est);
    // Re-validate after the charge so registration + ship are atomic with
    // the conflict checks.
  } while (ObjectLockedByOther(oid, txn));
  PageShip ship = ShipAvailableObjects(page, txn, client);
  SendToClient(client, MsgKind::kDataReply,
               ctx_.transport.DataBytes(ctx_.params.page_size_bytes),
               [reply = std::move(reply), ship = std::move(ship)]() mutable {
                 reply.Set(std::move(ship));
               });
}

// --- Client ------------------------------------------------------------------

void PsOoClient::OnCallback(PageId page, ObjectId oid, TxnId /*requester*/,
                            std::shared_ptr<CallbackBatch> batch) {
  storage::PageFrame* f = cache_.Peek(page);
  const int slot = SlotOf(oid);
  if (f == nullptr || !f->IsAvailable(slot)) {
    ReplyCallback(batch, {CallbackOutcome::kNotCached, kNoTxn});
    return;
  }
  if (txn_active_ && locks_.ReadsObject(oid)) {
    ReplyCallback(batch, {CallbackOutcome::kInUse, txn_});
    Defer([this, oid, page, slot, batch]() {
      CallbackOutcome out = CallbackOutcome::kNotCached;
      if (storage::PageFrame* g = cache_.Peek(page)) {
        g->MarkUnavailable(slot);
        ++ctx_.counters.callback_object_marks;
        out = CallbackOutcome::kRetained;
      }
      ReplyCallback(batch, {out, kNoTxn});
    });
    return;
  }
  // Mark only the object unavailable; the rest of the page stays usable.
  f->MarkUnavailable(slot);
  ++ctx_.counters.callback_object_marks;
  ReplyCallback(batch, {CallbackOutcome::kRetained, kNoTxn});
}

}  // namespace psoodb::core
