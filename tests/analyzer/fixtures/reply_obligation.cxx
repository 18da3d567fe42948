// Fixture: reply-obligation — a handler taking a sim::Promise by value owes
// exactly one reply on every exit path: never-consumed promises, early
// exits, and abort branches that drop the reply. Lexed only.

sim::Task Fetch(int page);
bool Missing(int page);
void Log(int page);
void Spawn(sim::Task t);
template <typename F>
void Send(int to, F&& fn);

// TP: unnamed promise parameter — impossible to consume.
void OnUnnamedDrop(int page, sim::Promise<bool>) {  // EXPECT: reply-obligation
  Log(page);
}

// TP: named but consumed on no path at all.
void OnNeverSends(int page, sim::Promise<bool> reply) PSOODB_REPLIES {  // EXPECT: reply-obligation
  Log(page);
}

// TP: the miss path returns before the reply is sent.
sim::Task HandleEarlyDrop(int page, sim::Promise<bool> reply) PSOODB_REPLIES {
  co_await Fetch(page);
  if (Missing(page)) {
    co_return;  // EXPECT: reply-obligation
  }
  reply.Set(true);
  co_return;  // FP-GUARD: reply-obligation — consumed above
}

// TP: the abort branch returns without consuming; the send below is
// unreachable on the abort path.
sim::Task HandleAbortDrop(int page, sim::Promise<bool> reply) PSOODB_REPLIES {
  if (const bool aborted = co_await Fetch(page); aborted) {  // EXPECT: reply-obligation
    co_return;
  }
  reply.Set(true);
  co_return;
}

// TP: each abort branch owes its own reply — the first branch's send does
// not cover the second.
sim::Task HandleSecondBranchDrops(int page,
                                  sim::Promise<bool> reply) PSOODB_REPLIES {
  if (const bool aborted = co_await Fetch(page); aborted) {
    reply.Set(false);
    co_return;
  }
  if (const bool aborted = co_await Fetch(page + 1); aborted) {  // EXPECT: reply-obligation
    co_return;
  }
  reply.Set(true);
  co_return;
}

// FP guard: both the normal and the abort path send.
sim::Task HandleBothPaths(int page, sim::Promise<bool> reply) PSOODB_REPLIES {
  if (const bool aborted = co_await Fetch(page); aborted) {  // FP-GUARD: reply-obligation — failure reply inside
    reply.Set(false);
    co_return;
  }
  reply.Set(true);
  co_return;
}

// FP guard: moving the promise into the deliver lambda is the consumption.
void OnMovesOut(int page, sim::Promise<bool> reply) PSOODB_REPLIES {
  Send(page, [reply = std::move(reply)]() mutable { reply.Set(true); });  // FP-GUARD: reply-obligation
}

// FP guard: handing the promise to a spawned coroutine transfers the
// obligation with it.
void OnSpawnsHandler(int page, sim::Promise<bool> reply) PSOODB_REPLIES {
  Spawn(HandleEarlyDrop(page, std::move(reply)));  // FP-GUARD: reply-obligation
}

// FP guard: not a handler shape — helpers may stash promises for later.
void StashPromise(int page, sim::Promise<bool> reply) {
  Log(page);
}

// TP: a named reply promise whose handler carries no PSOODB_REPLIES on any
// declaration is missing its contract annotation.
void OnUndeclared(int page, sim::Promise<bool> reply) {  // EXPECT: obligation-annotation
  reply.Set(true);
}

// Suppressed: a test double that deliberately never replies.
void OnTestDouble(int page, sim::Promise<bool>) {  // analyzer-ok(reply-obligation): fixture — double never replies by design  // EXPECT-SUPPRESSED: reply-obligation
  Log(page);
}
