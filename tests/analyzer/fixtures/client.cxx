// Fixture: protocol-transition, stem `client` — the legs every protocol
// shares in the client engine: commit, abort, the deferred callback ack and
// the page family's eviction notice, each paired with its spec'd handler
// (FP guards). The true positive is a steal: a dirty page shipped to the
// server mid-transaction, a leg the client no longer has. Lexed only.

void OnCommitReq(int txn);
void OnAbortReq(int txn);
void OnClientDroppedPage(int page);
void OnDirtyInstall(int page);
void FinishCallbackReply(int txn);

struct Transport {
  template <typename F>
  void SendToServer(int to, MsgKind kind, int bytes, F&& fn);
};

Transport net;

void EndTxnPaths(int txn) {
  net.SendToServer(0, MsgKind::kCommitReq, 256, [txn] { OnCommitReq(txn); });  // FP-GUARD: protocol-transition
  net.SendToServer(0, MsgKind::kAbortReq, 16, [txn] { OnAbortReq(txn); });  // FP-GUARD: protocol-transition
}

// A deferred callback reply resolves the server's batch, not a handler.
void CallbackAckPath(int txn) {
  net.SendToServer(0, MsgKind::kCallbackAck, 16, [txn] { FinishCallbackReply(txn); });  // FP-GUARD: protocol-transition
}

void EvictPath(int page) {
  net.SendToServer(0, MsgKind::kEvictionNotice, 16, [page] { OnClientDroppedPage(page); });  // FP-GUARD: protocol-transition
}

// TP: a dirty frame stays pinned until its transaction ends, so no client
// ships uncommitted pages mid-transaction.
void StealPath(int page) {
  net.SendToServer(0, MsgKind::kDirtyInstall, 128, [page] { OnDirtyInstall(page); });  // EXPECT: protocol-transition
}
