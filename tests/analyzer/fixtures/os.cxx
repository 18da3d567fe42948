// Fixture: protocol-transition, stem `os` — the object-server state machine
// with every required leg present and every send paired with its spec'd
// handler (commit and abort are the shared client legs, client.cxx). The
// whole file is a false-positive guard: the fixture test demands zero
// findings. Lexed only.

void OnObjectReadReq(int oid);
void OnObjectWriteReq(int oid);
void OnObjectCallback(int oid);
void OnObjectEvictionNotice(int oid);
void Resolve(int oid);

struct Transport {
  template <typename F>
  void SendToClient(int to, MsgKind kind, int bytes, F&& fn);
  template <typename F>
  void SendToServer(int to, MsgKind kind, int bytes, F&& fn);
};

Transport net;

void ReadPath(int oid) {
  net.SendToServer(0, MsgKind::kReadReq, 16, [oid] { OnObjectReadReq(oid); });  // FP-GUARD: protocol-transition
  net.SendToClient(1, MsgKind::kDataReply, 128, [oid] { Resolve(oid); });
}

void WritePath(int oid) {
  net.SendToServer(0, MsgKind::kWriteReq, 16, [oid] { OnObjectWriteReq(oid); });
  net.SendToClient(1, MsgKind::kControlReply, 16, [oid] { Resolve(oid); });
}

void CallbackPath(int oid) {
  net.SendToClient(1, MsgKind::kCallbackReq, 16, [oid] { OnObjectCallback(oid); });
}

void EvictPath(int oid) {
  net.SendToServer(0, MsgKind::kEvictionNotice, 16,
                   [oid] { OnObjectEvictionNotice(oid); });  // FP-GUARD: protocol-transition
}
