#include "check/invariants.h"

#include <cstdarg>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "cc/deadlock_coordinator.h"
#include "cc/deadlock_detector.h"
#include "cc/lock_manager.h"
#include "config/params.h"
#include "core/client.h"
#include "core/server.h"
#include "core/system.h"
#include "storage/buffer_manager.h"
#include "storage/object_cache.h"
#include "util/check.h"

namespace psoodb::check {

using config::Protocol;
using storage::ClientId;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::TxnId;

namespace {

/// Protocols that track replicas at page granularity.
bool PageGranularityCopies(Protocol p) {
  return p == Protocol::kPS || p == Protocol::kPSOA || p == Protocol::kPSAA;
}

/// Protocols that can grant page-level write permissions to clients.
bool GrantsPageWrites(Protocol p) {
  return p == Protocol::kPS || p == Protocol::kPSAA;
}

unsigned long long U(TxnId t) { return static_cast<unsigned long long>(t); }

/// Every client's active transaction.
std::unordered_set<TxnId> ActiveTxns(core::System& system) {
  std::unordered_set<TxnId> active;
  for (int i = 0; i < system.num_clients(); ++i) {
    const TxnId t = system.client(i).active_txn();
    if (t != kNoTxn) active.insert(t);
  }
  return active;
}
long long L(ObjectId o) { return static_cast<long long>(o); }

}  // namespace

InvariantChecker::InvariantChecker(core::System& system)
    : InvariantChecker(system, Options{}) {}

InvariantChecker::InvariantChecker(core::System& system, Options opts)
    : system_(system), opts_(opts) {}

void InvariantChecker::Record(const char* what) {
  if (static_cast<int>(violations_.size()) < opts_.max_recorded) {
    violations_.push_back(Violation{what, system_.simulation().now(),
                                    system_.simulation().events_processed()});
  } else {
    ++dropped_;
  }
  if (opts_.failfast) {
    Report(stderr);
    util::CheckFail("(protocol invariant)", 0, "invariant holds", "%s", what);
  }
}

bool InvariantChecker::Expect(bool cond, const char* fmt, ...) {
  ++checks_run_;
  if (cond) return true;
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  Record(buf);
  return false;
}

void InvariantChecker::Report(std::FILE* out) const {
  std::fprintf(out,
               "invariant checker: %llu sweeps, %llu checks, %zu violations\n",
               static_cast<unsigned long long>(sweeps_run_),
               static_cast<unsigned long long>(checks_run_),
               violations_.size());
  for (const auto& v : violations_) {
    std::fprintf(out, "  [t=%.9f ev=%llu] %s\n", v.sim_time,
                 static_cast<unsigned long long>(v.event), v.what.c_str());
  }
  if (dropped_ > 0) {
    std::fprintf(out, "  ... and %llu more (recording capped)\n",
                 static_cast<unsigned long long>(dropped_));
  }
}

void InvariantChecker::OnEvent() {
  if (opts_.event_period == 0) return;
  if (++events_seen_ % opts_.event_period == 0) CheckAll();
}

void InvariantChecker::CheckAll() {
  ++sweeps_run_;
  CheckLockTables();
  CheckDirtyPages();
  CheckWaitsFor();
  CheckStaging();
  CheckClientCaches();
  CheckSingleWriter();
  CheckReadFootprints();
}

void InvariantChecker::CheckLockTables() {
  for (int i = 0; i < system_.num_servers(); ++i) {
    for (const std::string& msg :
         system_.server(i).lock_manager().CheckCoherence()) {
      Expect(false, "server %d lock tables: %s", i, msg.c_str());
    }
    ++checks_run_;  // count the coherence pass itself
  }
}

void InvariantChecker::CheckDirtyPages() {
  for (int i = 0; i < system_.num_servers(); ++i) {
    core::Server& server = system_.server(i);
    int walked = 0;
    server.buffer().ForEach(
        [&walked](storage::PageId, const storage::PageFrame& f) {
          if (f.IsDirty()) ++walked;
        });
    Expect(server.dirty_pages() == walked,
           "server %d counts %d dirty pages but its buffer holds %d", i,
           server.dirty_pages(), walked);
  }
}

void InvariantChecker::CheckWaitsFor() {
  const std::unordered_set<TxnId> active = ActiveTxns(system_);
  TxnId last_waiter = kNoTxn;
  for (const auto& [waiter, blocker] : system_.detector().Edges()) {
    Expect(active.count(waiter) > 0,
           "waits-for edge %llu->%llu from a transaction not active at any "
           "client",
           U(waiter), U(blocker));
    // Blockers may already be dead (commit/abort in flight): such edges have
    // no outgoing continuation and cannot close a cycle, so only waiters are
    // required to be live.
    if (waiter != last_waiter) {  // Edges() is sorted by waiter
      last_waiter = waiter;
      Expect(!system_.detector().HasCycleFrom(waiter),
             "undetected waits-for cycle through txn %llu", U(waiter));
    }
  }
}

void InvariantChecker::CheckStaging() {
  const std::unordered_set<TxnId> active = ActiveTxns(system_);
  for (int i = 0; i < system_.num_servers(); ++i) {
    for (TxnId txn : system_.server(i).StagedTxns()) {
      Expect(active.count(txn) > 0,
             "server %d stages token-flush updates for txn %llu, which is "
             "not active at any client",
             i, U(txn));
    }
  }
}

void InvariantChecker::CheckClientCaches() {
  const Protocol proto = system_.protocol();
  const auto& params = system_.params();
  const auto& layout = system_.db().layout();

  for (int ci = 0; ci < system_.num_clients(); ++ci) {
    core::Client& c = system_.client(ci);
    const ClientId cid = c.id();
    const bool terminating = c.terminating();
    const cc::LocalTxnLocks& ll = c.local_locks();

    if (proto == Protocol::kOS) {
      c.ForEachCachedObject([&](ObjectId oid, const storage::ObjectFrame&) {
        core::Server& srv =
            system_.server(params.ServerOfPage(layout.PageOf(oid)));
        Expect(srv.object_copies().Holds(oid, cid),
               "client %d caches object %lld without a server copy "
               "registration",
               cid, L(oid));
      });
      if (terminating) continue;
      for (const auto& [p, fp] : ll.footprint()) {  // det-ok: invariant sweep; Expect only reports, nothing feeds the sim
        cc::ForEachObject(layout, p, fp.written, [&](ObjectId oid) {
          Expect(ll.HasObjectWrite(oid),
                 "client %d: written object %lld without a write permission",
                 cid, L(oid));
        });
      }
      continue;
    }

    c.ForEachCachedPage([&](PageId page, const storage::PageFrame& f) {
      core::Server& srv = system_.server(params.ServerOfPage(page));
      if (PageGranularityCopies(proto)) {
        Expect(srv.page_copies().Holds(page, cid),
               "client %d caches page %d without a server copy registration",
               cid, page);
      } else {
        // PS-OO / PS-WT: replicas are tracked per object; every *readable*
        // (available) slot must be registered. Unavailable slots may or may
        // not be registered (the unregistration travels with the callback
        // reply), so only the available direction is checkable.
        for (int s = 0; s < params.objects_per_page; ++s) {
          if (!f.IsAvailable(s)) continue;
          ObjectId oid = layout.ObjectAt(page, s);
          Expect(srv.object_copies().Holds(oid, cid),
                 "client %d holds available object %lld (page %d slot %d) "
                 "without a server copy registration",
                 cid, L(oid), page, s);
        }
      }
      if (f.dirty != 0 && !terminating) {
        Expect(c.active_txn() != kNoTxn,
               "client %d: dirty page %d with no active transaction", cid,
               page);
        for (int s = 0; s < params.objects_per_page; ++s) {
          if ((f.dirty & storage::SlotBit(s)) == 0) continue;
          ObjectId oid = layout.ObjectAt(page, s);
          Expect(f.IsAvailable(s),
                 "client %d: dirty slot %d of page %d is marked unavailable",
                 cid, s, page);
          Expect(ll.WritesObject(oid),
                 "client %d: dirty object %lld not in the transaction's "
                 "write set",
                 cid, L(oid));
          Expect(ll.HoldsWrite(oid),
                 "client %d: dirty object %lld without a write permission",
                 cid, L(oid));
        }
      }
      // Growth belongs to the dirty slots it came with: a commit clears
      // both, and a PS-WT token flush carries both to the server.
      if (f.pending_growth != 0 && !terminating) {
        Expect(f.dirty != 0,
               "client %d: clean page %d carries %d bytes of uncommitted "
               "growth",
               cid, page, f.pending_growth);
      }
    });
  }
}

void InvariantChecker::CheckSingleWriter() {
  const Protocol proto = system_.protocol();
  const auto& params = system_.params();
  const auto& layout = system_.db().layout();

  // Pass 1: collect the (unique) write-permission holder per page/object and
  // cross-check each permission against the server lock tables.
  std::unordered_map<PageId, ClientId> page_writers;
  std::unordered_map<ObjectId, ClientId> object_writers;
  for (int ci = 0; ci < system_.num_clients(); ++ci) {
    core::Client& c = system_.client(ci);
    if (c.terminating()) continue;  // local state outlives server ReleaseAll
    const ClientId cid = c.id();
    const TxnId txn = c.active_txn();
    const cc::LocalTxnLocks& ll = c.local_locks();

    for (const auto& [p, fp] : ll.footprint()) {  // det-ok: invariant sweep; Expect only reports, nothing feeds the sim
      if (!fp.page_write_locked) continue;
      Expect(txn != kNoTxn,
             "client %d holds a page write permission on %d with no active "
             "transaction",
             cid, p);
      auto [it, fresh] = page_writers.emplace(p, cid);
      Expect(fresh, "page %d write-permitted at two clients (%d and %d)", p,
             it->second, cid);
      Expect(GrantsPageWrites(proto),
             "client %d holds a page write permission on %d under a protocol "
             "that never grants them",
             cid, p);
      cc::LockManager& lm = system_.server(params.ServerOfPage(p))
                                .lock_manager();
      TxnId holder = lm.PageXHolder(p);
      Expect(holder == txn,
             "client %d txn %llu has a write permission on page %d but the "
             "server page X holder is txn %llu",
             cid, U(txn), p, U(holder));
    }

    for (const auto& [p, fp] : ll.footprint()) {  // det-ok: invariant sweep; Expect only reports, nothing feeds the sim
      cc::LockManager& lm = system_.server(params.ServerOfPage(p))
                                .lock_manager();
      cc::ForEachObject(layout, p, fp.write_locked, [&](ObjectId o) {
        Expect(txn != kNoTxn,
               "client %d holds an object write permission on %lld with no "
               "active transaction",
               cid, L(o));
        auto [it, fresh] = object_writers.emplace(o, cid);
        Expect(fresh,
               "object %lld write-permitted at two clients (%d and %d)", L(o),
               it->second, cid);
        // The page-lock disjunct covers two windows: PS-AA transactions
        // writing under a page lock, and the de-escalation round trip where
        // the client already swapped its page permission for object
        // permissions while the server still holds the page lock.
        TxnId oh = lm.ObjectXHolder(o);
        TxnId ph = lm.PageXHolder(p);
        Expect(oh == txn || ph == txn,
               "client %d txn %llu has a write permission on object %lld but "
               "the server holds neither the object lock (txn %llu) nor the "
               "page lock (txn %llu) for it",
               cid, U(txn), L(o), U(oh), U(ph));
      });
    }
  }

  // Pass 2: no conflicting reader / cached copy beside a writer.
  for (const auto& [p, writer] : page_writers) {  // det-ok: invariant sweep; Expect only reports, nothing feeds the sim
    for (int ci = 0; ci < system_.num_clients(); ++ci) {
      core::Client& other = system_.client(ci);
      if (other.id() == writer || other.terminating()) continue;
      Expect(other.PeekPage(p) == nullptr,
             "page %d is write-permitted at client %d but still cached at "
             "client %d",
             p, writer, other.id());
      if (other.active_txn() != kNoTxn) {
        Expect(!other.local_locks().UsesPage(p),
               "page %d is write-permitted at client %d but read by txn %llu "
               "at client %d",
               p, writer, U(other.active_txn()), other.id());
      }
    }
  }
  for (const auto& [o, writer] : object_writers) {  // det-ok: invariant sweep; Expect only reports, nothing feeds the sim
    for (int ci = 0; ci < system_.num_clients(); ++ci) {
      core::Client& other = system_.client(ci);
      if (other.id() == writer || other.terminating()) continue;
      if (other.active_txn() == kNoTxn) continue;
      Expect(!other.local_locks().ReadsObject(o),
             "object %lld is write-permitted at client %d but read by txn "
             "%llu at client %d",
             L(o), writer, U(other.active_txn()), other.id());
    }
  }
}

void InvariantChecker::CheckReadFootprints() {
  const Protocol proto = system_.protocol();
  const auto& layout = system_.db().layout();
  for (int ci = 0; ci < system_.num_clients(); ++ci) {
    core::Client& c = system_.client(ci);
    if (c.terminating()) continue;
    const TxnId txn = c.active_txn();
    if (txn == kNoTxn) continue;
    // The footprint lives outside the cache frames, so a dropped frame
    // leaves its reads behind for this check to find.
    for (const auto& [p, fp] : c.local_locks().footprint()) {  // det-ok: invariant sweep; Expect only reports, nothing feeds the sim
      if (proto == Protocol::kOS) {
        cc::ForEachObject(layout, p, fp.read, [&](ObjectId o) {
          Expect(c.PeekObject(o) != nullptr,
                 "client %d txn %llu read object %lld but no longer caches "
                 "it (a local read lock was silently dropped)",
                 c.id(), U(txn), L(o));
        });
      } else if (fp.read != 0) {
        // Page-family protocols: a cached page is the read permission for
        // the objects read from it. Slot availability is *not* invariant
        // here — a later ship may mark a locally-read object unavailable
        // while the deferred "in use" callback reply is still outstanding.
        Expect(c.PeekPage(p) != nullptr,
               "client %d txn %llu uses page %d but no longer caches it "
               "(a local read lock was silently dropped)",
               c.id(), U(txn), p);
      }
    }
  }
}

// --- Protocol hooks ----------------------------------------------------------

void InvariantChecker::OnCallbacksDrained(core::Server& server,
                                          const core::CallbackBatch& batch,
                                          TxnId txn) {
  (void)server;
  Expect(!batch.dead, "txn %llu: proceeding on a dead callback batch",
         U(txn));
  Expect(batch.pending == 0,
         "txn %llu: write proceeding with %d callback(s) still pending",
         U(txn), batch.pending);
  Expect(batch.new_blockers.empty(),
         "txn %llu: write proceeding with %zu unprocessed callback "
         "blocker(s)",
         U(txn), batch.new_blockers.size());
}

void InvariantChecker::OnAbortReleased(core::Server& server, TxnId txn) {
  cc::LockManager& lm = server.lock_manager();
  const std::size_t pages = lm.PagesHeldBy(txn);
  Expect(pages == 0,
         "aborted txn %llu still holds %zu page lock(s) after the abort "
         "handler (abort-path lock leak)",
         U(txn), pages);
  const std::size_t objects = lm.ObjectsHeldBy(txn);
  Expect(objects == 0,
         "aborted txn %llu still holds %zu object lock(s) after the abort "
         "handler (abort-path lock leak)",
         U(txn), objects);
}

void InvariantChecker::OnAbortPurged(const core::Client& client) {
  const auto& layout = system_.db().layout();
  for (const auto& [p, fp] : client.local_locks().footprint()) {  // det-ok: invariant hook; Expect only reports, nothing feeds the sim
    if (fp.written == 0) continue;
    Expect(client.PeekPage(p) == nullptr,
           "client %d aborting txn %llu still caches page %d of its write "
           "set after the purge",
           client.id(), U(client.active_txn()), p);
    cc::ForEachObject(layout, p, fp.written, [&](ObjectId o) {
      Expect(client.PeekObject(o) == nullptr,
             "client %d aborting txn %llu still caches object %lld of its "
             "write set after the purge",
             client.id(), U(client.active_txn()), L(o));
    });
  }
}

void InvariantChecker::OnWriteGrant(core::Server& server,
                                    core::GrantLevel level, PageId page,
                                    ObjectId oid, TxnId txn, ClientId client) {
  const Protocol proto = system_.protocol();
  cc::LockManager& lm = server.lock_manager();
  if (level == core::GrantLevel::kPage) {
    TxnId holder = lm.PageXHolder(page);
    Expect(holder == txn,
           "page %d granted to txn %llu but the server X holder is txn %llu",
           page, U(txn), U(holder));
    Expect(server.page_copies().HoldersExcept(page, client).empty(),
           "page write grant on %d to client %d with other copies still "
           "registered",
           page, client);
    return;
  }
  TxnId holder = lm.ObjectXHolder(oid);
  Expect(holder == txn,
         "object %lld granted to txn %llu but the server X holder is txn "
         "%llu",
         L(oid), U(txn), U(holder));
  if (proto == Protocol::kPSOA || proto == Protocol::kPSAA) {
    // Replicas are page-granularity: other clients may legitimately keep the
    // page, but the granted object must be unreadable (marked unavailable)
    // in every other cached copy.
    const int slot = system_.db().layout().SlotOf(oid);
    for (const auto& h : server.page_copies().HoldersExcept(page, client)) {
      core::Client& other = system_.client(h.client);
      if (other.terminating()) continue;
      const storage::PageFrame* f = other.PeekPage(page);
      Expect(f == nullptr || !f->IsAvailable(slot),
             "object write grant on %lld to client %d, but client %d still "
             "holds it readable in cached page %d",
             L(oid), client, h.client, page);
    }
  } else {
    Expect(server.object_copies().HoldersExcept(oid, client).empty(),
           "object write grant on %lld to client %d with other copies still "
           "registered",
           L(oid), client);
  }
}

void InvariantChecker::OnDeEscalationRequested(core::Server& server,
                                               PageId page, TxnId holder) {
  Expect(holder != kNoTxn, "de-escalation of page %d with no holder", page);
  TxnId actual = server.lock_manager().PageXHolder(page);
  Expect(actual == holder,
         "de-escalation of page %d requested for txn %llu but the X holder "
         "is txn %llu",
         page, U(holder), U(actual));
}

void InvariantChecker::OnDeEscalated(core::Server& server, PageId page,
                                     TxnId holder, ClientId holder_client,
                                     const std::vector<ObjectId>& written) {
  cc::LockManager& lm = server.lock_manager();
  TxnId now_holder = lm.PageXHolder(page);
  Expect(now_holder == kNoTxn,
         "page %d still X-locked by txn %llu after de-escalation", page,
         U(now_holder));
  for (ObjectId o : written) {
    TxnId oh = lm.ObjectXHolder(o);
    Expect(oh == holder,
           "de-escalated object %lld is locked by txn %llu, expected txn "
           "%llu",
           L(o), U(oh), U(holder));
  }
  Expect(!system_.client(holder_client).local_locks().HasPageWrite(page),
         "client %d retains its page write permission on %d after "
         "de-escalation",
         holder_client, page);
}

void ValidateDeadlockCoordinator(
    const cc::DeadlockCoordinator& coordinator,
    const std::vector<const cc::DeadlockDetector*>& detectors) {
  // Ground truth: the multiset union of every partition's live edge list.
  // The coordinator replays the same edges via the delta stream, so after a
  // fold the two views must agree exactly (edge set and multiplicities).
  std::map<std::pair<TxnId, TxnId>, std::uint32_t> expect;
  for (const cc::DeadlockDetector* det : detectors) {
    for (const auto& e : det->Edges()) ++expect[e];
  }
  const auto got = coordinator.SnapshotEdges();
  PSOODB_CHECK(got.size() == expect.size(),
               "deadlock coordinator tracks %zu distinct edges but the "
               "detectors hold %zu",
               got.size(), expect.size());
  auto it = expect.begin();
  for (const auto& [waiter, blocker, count] : got) {
    PSOODB_CHECK(it->first.first == waiter && it->first.second == blocker,
                 "deadlock coordinator edge %llu->%llu does not match "
                 "detector edge %llu->%llu",
                 U(waiter), U(blocker), U(it->first.first),
                 U(it->first.second));
    PSOODB_CHECK(it->second == count,
                 "deadlock coordinator edge %llu->%llu has multiplicity %u, "
                 "detectors say %u",
                 U(waiter), U(blocker), count, it->second);
    ++it;
  }
}

}  // namespace psoodb::check
