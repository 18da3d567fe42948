// Fixture: protocol-transition, stem `os` — the object-server state machine
// with every required leg present and every send paired with its spec'd
// handler: the object read request with its object ship, the shared write
// request, and the object eviction notice (the write grant and the
// callbacks are the server engine's legs, server.cxx; commit and abort the
// client engine's, client.cxx). The whole file is a false-positive guard:
// the fixture test demands zero findings. Lexed only.

void OnObjectReadReq(int oid);
void OnWriteReq(int oid);
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
  net.SendToServer(0, MsgKind::kWriteReq, 16, [oid] { OnWriteReq(oid); });  // FP-GUARD: protocol-transition
}

void EvictPath(int oid) {
  net.SendToServer(0, MsgKind::kEvictionNotice, 16,
                   [oid] { OnObjectEvictionNotice(oid); });  // FP-GUARD: protocol-transition
}
