// Fixture: protocol-transition, stem `server` — the legs the server engine
// sends for every protocol: the callbacks of a callback round and the
// grant/ack replies, each paired with its spec'd handler (FP guards). The
// true positives are a request leg the client engine owns, a callback
// delivered to a handler other than the one callback entry, and a kind from
// one protocol's own state machine. Lexed only.

void OnCallback(int page);
void OnWriteReq(int oid);
void OnDeEscalate(int page);
void Resolve(int txn);

struct Transport {
  template <typename F>
  void SendToClient(int to, MsgKind kind, int bytes, F&& fn);
  template <typename F>
  void SendToServer(int to, MsgKind kind, int bytes, F&& fn);
};

Transport net;

void CallbackPath(int page) {
  net.SendToClient(1, MsgKind::kCallbackReq, 16, [page] { OnCallback(page); });  // FP-GUARD: protocol-transition
}

void AckPath(int txn) {
  net.SendToClient(1, MsgKind::kControlReply, 16, [txn] { Resolve(txn); });  // FP-GUARD: protocol-transition
}

// TP: the write request is the client engine's leg.
void RequestPath(int oid) {
  net.SendToServer(0, MsgKind::kWriteReq, 16, [oid] { OnWriteReq(oid); });  // EXPECT: protocol-transition
}

// TP: a callback delivered to PS-AA's de-escalation handler.
void WrongHandler(int page) {
  net.SendToClient(1, MsgKind::kCallbackReq, 16, [page] { OnDeEscalate(page); });  // EXPECT: protocol-transition
}

// TP: token recalls belong to PS-WT's own state machine.
void TokenPath(int page) {
  net.SendToClient(1, MsgKind::kTokenRecall, 16, [page] { Resolve(page); });  // EXPECT: protocol-transition
}
