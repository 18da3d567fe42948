// Fixture: protocol-transition, stem `client` — the legs every protocol
// shares in the client engine: the page family's read and write requests,
// commit, abort, the deferred callback ack and the page family's eviction
// notice, each paired with its spec'd handler (FP guards). The true
// positives are a steal (a dirty page shipped to the server
// mid-transaction, a leg the client no longer has) and a callback, which
// only the server engine sends. Lexed only.

void OnReadReq(int oid);
void OnWriteReq(int oid);
void OnCommitReq(int txn);
void OnAbortReq(int txn);
void OnClientDroppedPage(int page);
void OnDirtyInstall(int page);
void OnCallback(int page);
void FinishCallbackReply(int txn);

struct Transport {
  template <typename F>
  void SendToServer(int to, MsgKind kind, int bytes, F&& fn);
};

Transport net;

void RequestPaths(int oid) {
  net.SendToServer(0, MsgKind::kReadReq, 16, [oid] { OnReadReq(oid); });  // FP-GUARD: protocol-transition
  net.SendToServer(0, MsgKind::kWriteReq, 16, [oid] { OnWriteReq(oid); });  // FP-GUARD: protocol-transition
}

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

// TP: callbacks are the server engine's leg.
void CallbackPath(int page) {
  net.SendToServer(0, MsgKind::kCallbackReq, 16, [page] { OnCallback(page); });  // EXPECT: protocol-transition
}
