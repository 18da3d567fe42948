#include "core/ps_aa.h"

#include <algorithm>

#include "check/invariants.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoClient;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

sim::Task PsAaServer::DeEscalate(PageId page, TxnId holder, TxnId requester) {
  const ClientId holder_client = lm_.PageXHolderClient(page);
  if (holder_client == kNoClient) co_return;
  ++ctx_.counters.deescalations;
  if (ctx_.invariants != nullptr) {
    ctx_.invariants->OnDeEscalationRequested(*this, page, holder);
  }

  sim::Promise<std::vector<ObjectId>> pr(ctx_.sim);
  auto fut = pr.GetFuture();
  SendToClient(holder_client, MsgKind::kDeEscalateReq,
               ctx_.transport.ControlBytes(),
               [cl = this->client(holder_client), page,
                pr = std::move(pr)]() mutable {
                 cl->OnDeEscalate(page, std::move(pr));
               });
  const double deesc_start = ctx_.sim.now();
  std::vector<ObjectId> written = co_await std::move(fut);
  if (ctx_.tracer != nullptr) {
    // The requester is stalled for this round trip, same as a callback round.
    const double dt = ctx_.sim.now() - deesc_start;
    ctx_.tracer->Attribute(requester, trace::Phase::kCallbackWait, dt);
    ctx_.tracer->EmitSpan(deesc_start, dt, trace::EventKind::kDeEscalate,
                          node_, requester, page,
                          static_cast<std::int64_t>(written.size()), holder,
                          holder_client);
  }

  // The holder may have committed/aborted (releasing the lock) or another
  // handler may have de-escalated it already.
  if (lm_.PageXHolder(page) != holder) co_return;
  // State change first, costs after: the grants + release must be atomic so
  // no handler observes the page lock without the object locks.
  const auto& layout = ctx_.db.layout();
  for (ObjectId oid : written) {
    lm_.GrantObjectXDirect(oid, layout.PageOf(oid), holder, holder_client);
  }
  lm_.ReleasePageX(page, holder);
  if (ctx_.invariants != nullptr) {
    ctx_.invariants->OnDeEscalated(*this, page, holder, holder_client,
                                   written);
  }
  {
    trace::PhaseTimer cpu_time(ctx_.tracer, requester,
                               trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst *
                         static_cast<double>(written.size() + 1));
  }
}

sim::Task PsAaServer::ResolveConflicts(ObjectId oid, PageId page, TxnId txn,
                                       bool buffer_page) {
  for (;;) {
    TxnId page_holder = lm_.PageXHolder(page);
    if (page_holder != kNoTxn && page_holder != txn) {
      // Page-level conflict: de-escalate the holder's lock (Section 3.3.3).
      co_await DeEscalate(page, page_holder, txn);
      continue;
    }
    TxnId obj_holder = lm_.ObjectXHolder(oid);
    if (obj_holder != kNoTxn && obj_holder != txn) {
      // Object-level conflict: block until the holder terminates.
      if (const bool aborted = co_await lm_.WaitObjectFree(oid, page, txn);
          aborted) {
        co_await sim::EndAborted();
      }
      continue;
    }
    if (buffer_page) {
      co_await EnsureBuffered(page, /*load=*/true, txn);
      // The disk read suspended; re-validate both checks.
      page_holder = lm_.PageXHolder(page);
      if (page_holder != kNoTxn && page_holder != txn) continue;
      obj_holder = lm_.ObjectXHolder(oid);
      if (obj_holder != kNoTxn && obj_holder != txn) continue;
    }
    co_return;
  }
}

sim::Task PsAaServer::HandleRead(ObjectId oid, TxnId txn, ClientId client,
                                 sim::Promise<PageShip> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    // Costs up front: ResolveConflicts returns with its checks validated
    // synchronously, so register + ship stay atomic with them.
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst +
                         ctx_.params.register_copy_inst);
  }
  if (const bool aborted =
          co_await ResolveConflicts(oid, page, txn, /*buffer_page=*/true);
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

sim::Task PsAaServer::HandleWrite(ObjectId oid, TxnId txn, ClientId client,
                                  sim::Promise<WriteGrant> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst);
  }
  if (const bool aborted =
          co_await ResolveConflicts(oid, page, txn, /*buffer_page=*/false);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }
  // Stake the claim at object granularity (no conflict left: synchronous,
  // and it aborts only a marked victim).
  if (const bool aborted = co_await lm_.AcquireObjectX(oid, page, txn, client);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }

  // Adaptive callbacks: each holder invalidates the whole page if it can.
  if (const bool aborted = co_await CallbackRound(page_copies_, page, client,
                                                  txn, page, oid);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }

  // Re-escalation decision (Section 3.3.3): a page write lock is possible
  // only if nobody holds a copy of the page anymore (checked against the
  // *current* copy table: readers may have registered while callback
  // outcomes were processed) and no other transaction holds object locks.
  GrantLevel level = GrantLevel::kObject;
  if (page_copies_.HoldersExcept(page, client).empty() &&
      UnavailableMask(page, txn) == 0 &&
      (lm_.PageXHolder(page) == kNoTxn || lm_.PageXHolder(page) == txn)) {
    // Free: synchronous, and it aborts only a marked victim.
    if (const bool aborted = co_await lm_.AcquirePageX(page, txn, client);
        aborted) {
      ReplyAborted(client, std::move(reply));
      co_return;
    }
    level = GrantLevel::kPage;
    ++ctx_.counters.page_lock_grants;
  } else {
    ++ctx_.counters.object_lock_grants;
  }
  if (ctx_.invariants != nullptr) {
    ctx_.invariants->OnWriteGrant(*this, level, page, oid, txn, client);
  }
  SendToClient(client, MsgKind::kControlReply, ctx_.transport.ControlBytes(),
               [reply = std::move(reply), level]() mutable {
                 reply.Set(WriteGrant{level, false, std::nullopt});
               });
}

// --- Client ------------------------------------------------------------------

void PsAaClient::ApplyGrant(ObjectId oid, GrantLevel level) {
  if (level == GrantLevel::kPage) locks_.GrantPageWrite(PageOf(oid));
  // The staked object lock exists either way.
  locks_.GrantObjectWrite(oid);
}

void PsAaClient::OnDeEscalate(PageId page,
                              sim::Promise<std::vector<ObjectId>> reply) {
  std::vector<ObjectId> written;
  const cc::PageFootprint* fp = locks_.footprint().find(page);
  if (fp != nullptr && fp->page_write_locked) {
    cc::ForEachObject(ctx_.db.layout(), page, fp->written,
                      [&written](ObjectId oid) { written.push_back(oid); });
    // The list rides the de-escalation reply and the server takes object
    // locks in list order: ascending oid, which slot order is not under a
    // relocated layout.
    std::sort(written.begin(), written.end());
    locks_.RevokePageWrite(page);
    for (ObjectId oid : written) locks_.GrantObjectWrite(oid);
  }
  SendToServer(ServerFor(page), MsgKind::kDeEscalateReply,
               ctx_.transport.ControlBytes(),
               [reply = std::move(reply),
                written = std::move(written)]() mutable {
                 reply.Set(std::move(written));
               });
}

}  // namespace psoodb::core
