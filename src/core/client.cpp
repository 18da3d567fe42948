#include "core/client.h"

#include <cstdio>
#include <cstdlib>

#include "check/invariants.h"
#include "util/check.h"

namespace psoodb::core {

using storage::ClientId;
using storage::ObjectId;
using storage::PageId;
using storage::SlotMask;
using storage::Version;

Client::Client(SystemContext& ctx, ClientId id,
               const config::WorkloadParams& workload,
               std::vector<Server*> servers)
    : ctx_(ctx),
      id_(id),
      servers_(std::move(servers)),
      cpu_(ctx.sim, ctx.params.client_mips),
      source_(workload, ctx.params, id, ctx.params.seed),
      rng_(ctx.params.seed, 0xBAC0FF + static_cast<std::uint64_t>(id)),
      locks_(ctx.db.layout()) {
  ctx_.transport.AttachCpu(static_cast<NodeId>(id), &cpu_);
  // System creates the tracer (when enabled) before building any client, so
  // the context pointer is final here.
  locks_.AttachTracing(ctx_.tracer, id_);
}

void Client::Start() { ctx_.sim.Spawn(MainLoop()); }

void Client::BeginTxn() {
  txn_ = ctx_.NewTxn();
  txn_active_ = true;
  locks_.Clear();
  locks_.SetTxn(txn_);
  read_versions_.clear();
}

void Client::EndTxnLocal() {
  txn_active_ = false;
  txn_committing_ = false;
  txn_aborting_ = false;
  UnpinAll();
  locks_.Clear();
  read_versions_.clear();
  // Deferred callback actions run after the transaction has fully ended
  // (commit acked / abort acknowledged), before the next one begins.
  std::vector<sim::InlineFunction> actions = std::move(deferred_);
  deferred_.clear();
  for (auto& a : actions) a();
}

bool Client::NoteRead(ObjectId oid, Version version,
                      cc::LocalTxnLocks::Access before) {
  if (before.own_write) return true;
  const bool valid = ctx_.CheckCacheValidity(oid, version);
  if (before.first_of_object && ctx_.history != nullptr) {
    read_versions_.emplace_back(oid, version);
  }
  return valid;
}

void Client::ReplyCallback(const std::shared_ptr<CallbackBatch>& batch,
                           CallbackReply reply) {
  Server* srv = batch->owner;
  ClientId from = id_;
  SendToServer(srv, MsgKind::kCallbackAck, ctx_.transport.ControlBytes(),
               [srv, batch, from, reply]() {
                 srv->FinishCallbackReply(batch, from, reply);
               });
}

template <typename Fn>
void Client::ForEachWrittenPage(Fn&& fn) const {
  for (const auto& [page, fp] : locks_.footprint()) {  // det-ok: order-free; HandleCommit sorts a commit's updates by page, and each abort unregistration touches its own item
    if (fp.written == 0) continue;
    fn(static_cast<std::size_t>(ctx_.params.ServerOfPage(page)), page,
       fp.written);
  }
}

sim::Task Client::Commit() {
  txn_committing_ = true;
  // One slot per server, in server order. Every server the write set
  // touches joins the commit, also one whose updates a PS-WT token recall
  // already staged there (clearing the cached dirty bits): the commit
  // installs them and releases the locks.
  struct ServerCommit {
    bool joins = false;
    std::vector<PageUpdate> updates;
  };
  std::vector<ServerCommit> commits(servers_.size());
  bool wrote = false;
  ForEachWrittenPage([&](std::size_t sidx, PageId page, SlotMask written) {
    commits[sidx].joins = true;
    wrote = true;
    CollectUpdate(page, written, commits[sidx].updates);
  });
  // A read-only transaction still confirms its commit with its home server
  // (releasing any server-side state and forcing the commit record).
  if (!wrote) commits[0].joins = true;

  std::vector<sim::Future<CommitAck>> acks;
  for (std::size_t sidx = 0; sidx < commits.size(); ++sidx) {
    if (!commits[sidx].joins) continue;
    sim::Promise<CommitAck> pr(ctx_.sim);
    acks.push_back(pr.GetFuture());
    Server* srv = servers_[sidx];
    std::vector<PageUpdate>& updates = commits[sidx].updates;
    const int bytes = ctx_.transport.DataBytes(CommitPayload(updates));
    SendToServer(srv, MsgKind::kCommitReq, bytes,
                 [srv, txn = txn_, from = id_, updates = std::move(updates),
                  pr = std::move(pr)]() mutable {
                   srv->OnCommitReq(txn, from, std::move(updates),
                                    std::move(pr));
                 });
  }
  CommitAck merged;
  BeginRpc();
  for (auto& fut : acks) {
    CommitAck ack = co_await std::move(fut);
    merged.new_versions.insert(merged.new_versions.end(),
                               ack.new_versions.begin(),
                               ack.new_versions.end());
  }
  EndRpc();

  // History is recorded once all involved servers have acked (strict 2PL:
  // all locks were held until here, so the serialization point is sound).
  if (ctx_.history != nullptr) {
    CommittedTxn record;
    record.txn = txn_;
    record.reads = {read_versions_.begin(), read_versions_.end()};
    record.writes = merged.new_versions;
    ctx_.history->RecordCommit(std::move(record));
  }
  ApplyCommitted(merged);
  EndTxnLocal();
}

sim::Task Client::Abort() {
  txn_aborting_ = true;
  // Unpin first (the aborting transaction's footprint no longer needs
  // residency), then purge its updates: later transactions must not see
  // them.
  UnpinAll();
  std::vector<PurgedItems> purged(servers_.size());
  ForEachWrittenPage([&](std::size_t sidx, PageId page, SlotMask written) {
    PurgeUpdate(page, written, purged[sidx]);
  });
  if (ctx_.invariants != nullptr) ctx_.invariants->OnAbortPurged(*this);

  std::vector<sim::Future<bool>> acks;
  for (std::size_t sidx = 0; sidx < servers_.size(); ++sidx) {
    sim::Promise<bool> pr(ctx_.sim);
    acks.push_back(pr.GetFuture());
    Server* srv = servers_[sidx];
    SendToServer(srv, MsgKind::kAbortReq, ctx_.transport.ControlBytes(),
                 [srv, txn = txn_, from = id_, mine = std::move(purged[sidx]),
                  pr = std::move(pr)]() mutable {
                   srv->OnAbortReq(txn, from, std::move(mine.pages),
                                   std::move(mine.objects), std::move(pr));
                 });
  }
  BeginRpc();
  for (auto& fut : acks) co_await std::move(fut);
  EndRpc();
  EndTxnLocal();
}

sim::Task Client::MainLoop() {
  // One reference string, refilled for every transaction: generation sizes
  // it for the workload's largest transaction once, in the first.
  workload::ReferenceString refs;
  for (;;) {
    if (ctx_.tracer != nullptr) cycle_.Clear();
    if (ctx_.params.think_time > 0) {
      const double think_start = ctx_.sim.now();
      co_await ctx_.sim.Delay(ctx_.params.think_time);
      if (ctx_.tracer != nullptr) {
        cycle_.Add(trace::Phase::kThink, ctx_.sim.now() - think_start);
      }
    }
    source_.NextTransaction(refs);
    const sim::SimTime first_start = ctx_.sim.now();
    bool committed = false;
    while (!committed) {
      BeginTxn();
      if (ctx_.tracer != nullptr) {
        ctx_.tracer->Emit(trace::EventKind::kTxnBegin, id_, txn_);
      }
      bool aborted = false;
      for (const auto& op : refs) {
        if (op.is_write) {
          aborted = co_await Write(op.oid);
        } else {
          aborted = co_await Read(op.oid);
        }
        if (aborted) break;
        trace::PhaseTimer cpu_time(ctx_.tracer, txn_,
                                   trace::Phase::kClientCpu);
        co_await cpu_.User(ctx_.params.object_inst * (op.is_write ? 2 : 1));
      }
      if (aborted) {
        ++ctx_.counters.aborts;
        if (ctx_.tracer != nullptr) {
          ctx_.tracer->Emit(trace::EventKind::kTxnAbort, id_, txn_);
        }
        co_await Abort();
        if (ctx_.tracer != nullptr) {
          // Each attempt runs under its own TxnId; fold the aborted
          // attempt's attributed phases into this commit cycle.
          cycle_.Fold(ctx_.tracer->TakePhases(txn_));
        }
        // Resubmitted with the same object reference string (Section 4.1),
        // after a backoff proportional to the average response time so that
        // mutually deadlocking transactions de-synchronize.
        if (ctx_.params.restart_backoff) {
          const double backoff_start = ctx_.sim.now();
          co_await ctx_.sim.Delay(rng_.Exponential(ctx_.RestartDelayMean()));
          if (ctx_.tracer != nullptr) {
            const double dt = ctx_.sim.now() - backoff_start;
            cycle_.Add(trace::Phase::kBackoff, dt);
            ctx_.tracer->EmitSpan(backoff_start, dt,
                                  trace::EventKind::kTxnRestart, id_, txn_);
          }
        }
        continue;
      }
      co_await Commit();
      committed = true;
    }
    ++ctx_.counters.commits;
    const double response = ctx_.sim.now() - first_start;
    ctx_.NoteResponse(response);
    if (ctx_.latency != nullptr) ctx_.latency->response.Add(response);
    if (ctx_.tracer != nullptr) {
      ctx_.tracer->FinalizeCommit(id_, txn_, first_start, response, cycle_);
    }
    if (ctx_.responses != nullptr) {
      ctx_.responses->emplace_back(ctx_.sim.now(), response);
    }
  }
}

// Default sub-protocol handlers: only PS-AA's server de-escalates and only
// PS-WT's recalls tokens; anything else is a wiring bug.
void Client::OnDeEscalate(PageId,
                          sim::Promise<std::vector<ObjectId>>) {  // analyzer-ok(reply-obligation): unreachable — the CHECK below aborts before the promise could be consumed
  PSOODB_CHECK(false, "unexpected de-escalation request for this protocol");
}
void Client::OnTokenRecall(PageId, sim::Promise<bool>) {  // analyzer-ok(reply-obligation): unreachable — the CHECK below aborts before the promise could be consumed
  PSOODB_CHECK(false, "unexpected token recall for this protocol");
}

// --- PageFamilyClient --------------------------------------------------------

PageFamilyClient::PageFamilyClient(SystemContext& ctx, ClientId id,
                                   const config::WorkloadParams& workload,
                                   std::vector<Server*> servers)
    : Client(ctx, id, workload, std::move(servers)),
      cache_(static_cast<std::size_t>(ctx.params.client_buf_pages())) {}

bool PageFamilyClient::CachedAvailable(ObjectId oid) const {
  const storage::PageFrame* f = cache_.Peek(PageOf(oid));
  if (f == nullptr) return false;
  const int slot = SlotOf(oid);
  // Own uncommitted updates are always readable.
  if ((f->dirty & storage::SlotBit(slot)) != 0) return true;
  return f->IsAvailable(slot);
}

void PageFamilyClient::UnpinAll() {
  if (!locks_.ReleasePins()) return;
  for (const auto& [page, fp] : locks_.footprint()) {  // det-ok: commutative unpin, no events
    if (fp.read != 0 && cache_.Contains(page)) cache_.Unpin(page);
  }
}

sim::Task PageFamilyClient::Read(ObjectId oid) {
  if (CachedAvailable(oid)) {
    ++ctx_.counters.cache_hits;
  } else {
    if (cache_.Peek(PageOf(oid)) != nullptr) {
      ++ctx_.counters.unavailable_rerequests;
    }
    ++ctx_.counters.cache_misses;
    if (const bool aborted = co_await FetchFor(oid); aborted) {
      co_await sim::EndAborted();
    }
  }
  LocalRead(oid);
}

sim::Task PageFamilyClient::FetchFor(ObjectId oid) {
  // System builds every server of a page-transfer run as a PageServer.
  auto* srv = static_cast<PageServer*>(ServerFor(PageOf(oid)));
  while (!CachedAvailable(oid)) {
    sim::Promise<PageShip> pr(ctx_.sim);
    auto fut = pr.GetFuture();
    SendToServer(srv, MsgKind::kReadReq, ctx_.transport.ControlBytes(),
                 [srv, oid, txn = txn_, from = id_,
                  pr = std::move(pr)]() mutable {
                   srv->OnReadReq(oid, txn, from, std::move(pr));
                 });
    BeginRpc();
    PageShip ship = co_await std::move(fut);
    EndRpc();
    if (ship.aborted) co_await sim::EndAborted();
    co_await ApplyShip(std::move(ship));
  }
}

sim::Task PageFamilyClient::Write(ObjectId oid) {
  // A write access reads the object first.
  if (const bool aborted = co_await Read(oid); aborted) {
    co_await sim::EndAborted();
  }
  if (!locks_.HoldsWrite(oid)) {
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
    if (grant.ship) co_await ApplyShip(std::move(*grant.ship));
    ApplyGrant(oid, grant.level);
  }
  // The read pinned the page, and callbacks on an object this transaction
  // read wait for it to end, so this fetch is only a guard.
  if (!CachedAvailable(oid)) {
    if (const bool aborted = co_await FetchFor(oid); aborted) {
      co_await sim::EndAborted();
    }
  }
  MarkLocalWrite(oid);
}

void PageFamilyClient::ApplyGrant(ObjectId oid, GrantLevel level) {
  if (level == GrantLevel::kPage) {
    locks_.GrantPageWrite(PageOf(oid));
  } else {
    locks_.GrantObjectWrite(oid);
  }
}

void PageFamilyClient::LocalRead(ObjectId oid) {
  const PageId page = PageOf(oid);
  storage::PageFrame* f = cache_.Get(page);
  PSOODB_CHECK(f != nullptr, "read of oid %lld but page %d not cached",
               static_cast<long long>(oid), page);
  const int slot = SlotOf(oid);
  const cc::LocalTxnLocks::Access before = locks_.RecordRead(oid);
  // The cached copy is this transaction's read lock: keep it resident.
  if (before.first_on_page) cache_.Pin(page);
  // NoteRead checks the version held against the store. Debug aid: set
  // PSOODB_TRACE_VIOLATIONS=1 to dump state when a stale cached object is
  // read (a protocol bug; tests keep this at zero). The variable is read on
  // this rare path only, so setting it mid-process takes effect.
  if (!NoteRead(oid, f->versions[static_cast<std::size_t>(slot)], before) &&
      std::getenv("PSOODB_TRACE_VIOLATIONS") != nullptr) {
    std::fprintf(stderr,
                 "[t=%.6f] VIOLATION client=%d txn=%llu oid=%lld page=%d "
                 "slot=%d held=%llu committed=%llu unavail=%016llx "
                 "dirty=%016llx\n",
                 ctx_.sim.now(), id_, (unsigned long long)txn_,
                 (long long)oid, page, slot,
                 (unsigned long long)f->versions[slot],
                 (unsigned long long)ctx_.db.committed_version(oid),
                 (unsigned long long)f->unavailable,
                 (unsigned long long)f->dirty);
  }
}

void PageFamilyClient::MarkLocalWrite(ObjectId oid) {
  storage::PageFrame* f = cache_.Get(PageOf(oid));
  PSOODB_CHECK(f != nullptr, "page %d must be cached before updating oid %lld",
               PageOf(oid), static_cast<long long>(oid));
  f->MarkDirty(SlotOf(oid));
  // Size-changing updates (Section 6.1): some updates grow the object.
  if (ctx_.params.size_change_prob > 0 &&
      rng_.Bernoulli(ctx_.params.size_change_prob)) {
    const double max_growth =
        ctx_.params.growth_fraction_max * ctx_.params.object_size_bytes();
    f->pending_growth +=
        static_cast<int>(rng_.UniformInt(1, std::max(1, (int)max_growth)));
  }
  if (locks_.RecordWrite(oid).first_on_page) cache_.Pin(PageOf(oid));
}

void PageFamilyClient::HandleEviction(PageId page,
                                      const storage::PageFrame& frame) {
  // A dirty page is pinned until its transaction ends (MarkLocalWrite), and
  // the cache never evicts a pinned page.
  PSOODB_CHECK(!frame.IsDirty(), "dirty page %d evicted", page);
  Server* srv = ServerFor(page);
  SendToServer(srv, MsgKind::kEvictionNotice, ctx_.transport.ControlBytes(),
               [srv, page, from = id_]() {
                 srv->OnClientDroppedPage(page, from);
               });
}

sim::Task PageFamilyClient::ApplyShip(PageShip ship) {
  auto r = cache_.Insert(ship.page);
  storage::PageFrame* f = r.value;
  int merged = 0;
  if (r.inserted) {
    f->versions = std::move(ship.versions);
    f->unavailable = ship.unavailable;
  } else {
    // Merge: local uncommitted updates win; everything else refreshes.
    const int opp = ctx_.params.objects_per_page;
    for (int s = 0; s < opp; ++s) {
      if ((f->dirty & storage::SlotBit(s)) != 0) continue;
      if (f->versions[static_cast<std::size_t>(s)] !=
          ship.versions[static_cast<std::size_t>(s)]) {
        ++merged;
      }
      f->versions[static_cast<std::size_t>(s)] =
          ship.versions[static_cast<std::size_t>(s)];
    }
    f->unavailable = ship.unavailable & ~f->dirty;
  }
  if (r.evicted.has_value()) {
    HandleEviction(r.evicted->first, r.evicted->second);
  }
  if (merged > 0) {
    trace::PhaseTimer cpu_time(ctx_.tracer, txn_, trace::Phase::kClientCpu);
    co_await cpu_.System(ctx_.params.copy_merge_inst * merged);
  }
}

void PageFamilyClient::CollectUpdate(PageId page, SlotMask /*written*/,
                                     std::vector<PageUpdate>& updates) const {
  const storage::PageFrame* f = cache_.Peek(page);
  if (f != nullptr && f->IsDirty()) {
    updates.push_back({page, f->dirty, f->pending_growth});
  }
}

int PageFamilyClient::CommitPayload(
    const std::vector<PageUpdate>& updates) const {
  if (ctx_.params.commit_mode != config::CommitMode::kRedoAtServer) {
    return static_cast<int>(updates.size()) * ctx_.params.page_size_bytes;
  }
  int objects = 0;
  for (const PageUpdate& u : updates) objects += storage::PopCount(u.dirty);
  return objects *
         (ctx_.params.log_record_bytes + ctx_.params.object_size_bytes());
}

void PageFamilyClient::ApplyCommitted(const CommitAck& ack) {
  // The ack names every object the transaction wrote, so this cleans every
  // frame it dirtied.
  for (const auto& [oid, v] : ack.new_versions) {
    if (storage::PageFrame* f = cache_.Peek(PageOf(oid))) {
      f->versions[static_cast<std::size_t>(SlotOf(oid))] = v;
      f->dirty = 0;
      f->pending_growth = 0;
    }
  }
}

void PageFamilyClient::PurgeUpdate(PageId page, SlotMask /*written*/,
                                   PurgedItems& purged) {
  // Every written page goes, also one a PS-WT token flush left clean: the
  // server discards what the flush staged, but the cached image holds it.
  if (cache_.Remove(page).has_value()) purged.pages.push_back(page);
}

}  // namespace psoodb::core
