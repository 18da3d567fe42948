// Fixture: lock-leak — acquire/release obligation dataflow with exit-path
// enumeration: a never-released acquire, an early return past one, and an
// abort branch (an `if` testing an awaited task's abort outcome, or the
// deadlock detector's verdict) that skips the cleanup. The annotated
// declarations below seed the obligation index; the file is lexed only,
// never compiled.

struct LockManager {
  sim::Task AcquirePageX(int page, int txn) PSOODB_ACQUIRES(lock);
  void ReleaseAll(int txn) PSOODB_RELEASES(lock);
};

struct Detector {
  bool OnWait(int waiter, int holder);
};

LockManager lm;
Detector detector;

void Note(int txn);
void Spawn(sim::Task t);
sim::Task Fetch(int page);

// TP: acquired here, released on no path at all.
sim::Task NeverReleases(int txn) {
  co_await lm.AcquirePageX(1, txn);  // EXPECT: lock-leak
  Note(txn);
  co_return;
}

// TP: the conflict path returns without releasing.
sim::Task EarlyExitLeaks(int txn, bool busy) {
  co_await lm.AcquirePageX(2, txn);
  if (busy) {
    co_return;  // EXPECT: lock-leak
  }
  lm.ReleaseAll(txn);
  co_return;  // FP-GUARD: lock-leak — released above, this exit is clean
}

// TP: the abort branch returns without ReleaseAll (it neither releases,
// ends the task aborted, nor falls through to a release).
sim::Task AbortPathLeaks(int txn) {
  if (const bool aborted = co_await lm.AcquirePageX(3, txn); aborted) {
    co_return;  // FP-GUARD: lock-leak — the aborted acquire holds nothing
  }
  if (const bool aborted = co_await Fetch(3); aborted) {  // EXPECT: lock-leak
    Note(txn);
    co_return;
  }
  lm.ReleaseAll(txn);
  co_return;
}

// TP: the detector's verdict opens an abort branch too.
sim::Task VerdictBranchLeaks(int txn, int holder) {
  if (const bool aborted = co_await lm.AcquirePageX(9, txn); aborted) {
    co_return;
  }
  if (detector.OnWait(txn, holder)) co_return;  // EXPECT: lock-leak
  lm.ReleaseAll(txn);
}

// FP guard: releasing after the branch covers the abort path too.
sim::Task ReleaseAfterBranchOk(int txn) {
  if (const bool aborted = co_await lm.AcquirePageX(4, txn); aborted) {
    co_return;
  }
  if (const bool aborted = co_await Fetch(4); aborted) {  // FP-GUARD: lock-leak — falls through to the release below
    Note(txn);
  }
  lm.ReleaseAll(txn);
  co_return;
}

// FP guard: ending the task aborted hands the obligation to the awaiter's
// abort branch.
sim::Task PropagateOk(int txn) {
  if (const bool aborted = co_await lm.AcquirePageX(5, txn); aborted) {
    co_await sim::EndAborted();
  }
  if (const bool aborted = co_await Fetch(5); aborted) {  // FP-GUARD: lock-leak — propagated, the awaiter owns cleanup
    co_await sim::EndAborted();
  }
  lm.ReleaseAll(txn);
  co_return;
}

// FP guard: PSOODB_ACQUIRES on the function declares the transfer — holding
// past co_return is the contract, not a leak.
sim::Task HandleWriteTransfer(int txn) PSOODB_ACQUIRES(lock) {
  co_await lm.AcquirePageX(6, txn);  // FP-GUARD: lock-leak — declared transfer
  co_return;
}

// FP guard: obligations inside a Spawn span belong to the spawned coroutine.
void OnWriteEntry(int txn) {
  Spawn(HandleWriteTransfer(txn));  // FP-GUARD: lock-leak
}

// FP guard: a unique, non-coroutine helper that only releases discharges the
// obligation at its call sites (call-graph release propagation).
void FinishTxn(int txn) {
  lm.ReleaseAll(txn);
}

sim::Task ReleasesViaHelper(int txn) {
  co_await lm.AcquirePageX(7, txn);
  FinishTxn(txn);  // FP-GUARD: lock-leak — release propagates through the helper
  co_return;
}

// Suppressed: ownership parked where the analyzer cannot see it.
sim::Task RegistryParked(int txn) {
  co_await lm.AcquirePageX(8, txn);  // analyzer-ok(lock-leak): fixture — ownership parked in a registry  // EXPECT-SUPPRESSED: lock-leak
  co_return;
}
