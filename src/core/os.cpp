#include "core/os.h"

#include "util/check.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::SlotMask;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

void OsServer::OnObjectReadReq(ObjectId oid, TxnId txn, ClientId client,
                               sim::Promise<ObjectShip> reply) {
  ctx_.sim.Spawn(HandleRead(oid, txn, client, std::move(reply)));
}

sim::Task OsServer::HandleRead(ObjectId oid, TxnId txn, ClientId client,
                               sim::Promise<ObjectShip> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  {
    // Costs up front: the final check-register-ship runs without
    // suspension.
    trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
    co_await cpu_.System(ctx_.params.lock_inst +
                         ctx_.params.register_copy_inst);
  }
  if (const bool aborted = co_await WaitObjectReadable(oid, page, txn);
      aborted) {
    ReplyAborted(client, std::move(reply));
    co_return;
  }
  object_copies_.Register(oid, client);
  ObjectShip ship{oid, ctx_.db.committed_version(oid), false};
  SendToClient(client, MsgKind::kDataReply,
               ctx_.transport.DataBytes(ctx_.params.object_size_bytes()),
               [reply = std::move(reply), ship]() mutable { reply.Set(ship); });
}

// --- Client ------------------------------------------------------------------

OsClient::OsClient(SystemContext& ctx, ClientId id,
                   const config::WorkloadParams& workload,
                   std::vector<Server*> servers)
    : Client(ctx, id, workload, std::move(servers)),
      cache_(static_cast<std::size_t>(ctx.params.client_buf_objects())) {}

void OsClient::HandleEviction(ObjectId oid) {
  // A written object is pinned until its transaction ends (Write), and the
  // cache never evicts a pinned object.
  PSOODB_CHECK(!locks_.WritesObject(oid), "written object %lld evicted",
               static_cast<long long>(oid));
  Server* srv = ServerFor(PageOf(oid));
  SendToServer(srv, MsgKind::kEvictionNotice, ctx_.transport.ControlBytes(),
               [srv, oid, from = id_]() {
                 srv->OnObjectEvictionNotice(oid, from);
               });
}

sim::Task OsClient::FetchObject(ObjectId oid) {
  sim::Promise<ObjectShip> pr(ctx_.sim);
  auto fut = pr.GetFuture();
  // System builds every server of an OS run as an OsServer.
  auto* srv = static_cast<OsServer*>(ServerFor(PageOf(oid)));
  SendToServer(srv, MsgKind::kReadReq, ctx_.transport.ControlBytes(),
               [srv, oid, txn = txn_, from = id_,
                pr = std::move(pr)]() mutable {
                 srv->OnObjectReadReq(oid, txn, from, std::move(pr));
               });
  BeginRpc();
  ObjectShip ship = co_await std::move(fut);
  EndRpc();
  if (ship.aborted) co_await sim::EndAborted();
  auto r = cache_.Insert(oid);
  r.value->version = ship.version;
  if (r.evicted.has_value()) HandleEviction(r.evicted->first);
}

void OsClient::UnpinAll() {
  if (!locks_.ReleasePins()) return;
  const auto& layout = ctx_.db.layout();
  for (const auto& [page, fp] : locks_.footprint()) {  // det-ok: commutative unpin, no events
    cc::ForEachObject(layout, page, fp.read, [this](ObjectId oid) {
      if (cache_.Contains(oid)) cache_.Unpin(oid);
    });
  }
}

sim::Task OsClient::Read(ObjectId oid) {
  storage::ObjectFrame* f = cache_.Get(oid);
  if (f == nullptr) {
    ++ctx_.counters.cache_misses;
    if (const bool aborted = co_await FetchObject(oid); aborted) {
      co_await sim::EndAborted();
    }
    f = cache_.Get(oid);
    PSOODB_CHECK(f != nullptr, "oid %lld missing after fetch",
                 static_cast<long long>(oid));
  } else {
    ++ctx_.counters.cache_hits;
  }
  const cc::LocalTxnLocks::Access before = locks_.RecordRead(oid);
  // The cached copy is this transaction's read lock: keep it resident.
  if (before.first_of_object) cache_.Pin(oid);
  NoteRead(oid, f->version, before);
}

sim::Task OsClient::Write(ObjectId oid) {
  if (const bool aborted = co_await Read(oid); aborted) {
    co_await sim::EndAborted();
  }
  if (!locks_.HasObjectWrite(oid)) {
    sim::Promise<WriteGrant> pr(ctx_.sim);
    auto fut = pr.GetFuture();
    Server* srv = ServerFor(PageOf(oid));
    SendToServer(srv, MsgKind::kWriteReq, ctx_.transport.ControlBytes(),
                 [srv, oid, txn = txn_, from = id_,
                  pr = std::move(pr)]() mutable {
                   srv->OnWriteReq(oid, txn, from, std::move(pr));
                 });
    BeginRpc();
    WriteGrant grant = co_await std::move(fut);
    EndRpc();
    if (grant.aborted) co_await sim::EndAborted();
    locks_.GrantObjectWrite(oid);
  }
  // The write makes the copy most recently used. The read pinned it, and a
  // callback on it waits for the transaction to end, so the fetch is only
  // a guard.
  if (cache_.Get(oid) == nullptr) {
    if (const bool aborted = co_await FetchObject(oid); aborted) {
      co_await sim::EndAborted();
    }
  }
  if (locks_.RecordWrite(oid).first_of_object) cache_.Pin(oid);
}

void OsClient::CollectUpdate(PageId page, SlotMask written,
                             std::vector<PageUpdate>& updates) const {
  updates.push_back({page, written});
}

int OsClient::CommitPayload(const std::vector<PageUpdate>& updates) const {
  int objects = 0;
  for (const PageUpdate& u : updates) objects += storage::PopCount(u.dirty);
  return objects * ctx_.params.object_size_bytes();
}

void OsClient::ApplyCommitted(const CommitAck& ack) {
  for (const auto& [oid, v] : ack.new_versions) {
    if (storage::ObjectFrame* f = cache_.Peek(oid)) f->version = v;
  }
}

void OsClient::PurgeUpdate(PageId page, SlotMask written,
                           PurgedItems& purged) {
  cc::ForEachObject(ctx_.db.layout(), page, written, [&](ObjectId oid) {
    if (cache_.Remove(oid).has_value()) purged.objects.push_back(oid);
  });
}

void OsClient::OnCallback(PageId /*page*/, ObjectId oid, TxnId /*requester*/,
                          std::shared_ptr<CallbackBatch> batch) {
  if (!cache_.Contains(oid)) {
    ReplyCallback(batch, {CallbackOutcome::kNotCached, kNoTxn});
    return;
  }
  if (txn_active_ && locks_.ReadsObject(oid)) {
    ReplyCallback(batch, {CallbackOutcome::kInUse, txn_});
    Defer([this, oid, batch]() {
      CallbackOutcome out = CallbackOutcome::kNotCached;
      if (cache_.Peek(oid) != nullptr) {
        cache_.Remove(oid);
        out = CallbackOutcome::kPurged;
      }
      ReplyCallback(batch, {out, kNoTxn});
    });
    return;
  }
  cache_.Remove(oid);
  ReplyCallback(batch, {CallbackOutcome::kPurged, kNoTxn});
}

}  // namespace psoodb::core
