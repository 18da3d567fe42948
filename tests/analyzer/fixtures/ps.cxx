// Fixture: protocol-transition, stem `ps` — never ships page data, so a required state-machine leg is missing.  EXPECT: protocol-transition
// The read, write and callback requests are the engines' legs (client.cpp
// sends the requests, server.cpp the callbacks), so a PS file keeps only its
// replies. A reply that resolves a promise is the false-positive guard; a
// request sent from the protocol file, a kind from another protocol's state
// machine, and a reply delivered to a handler are the true positives.
// Lexed only; the `ps` stem makes the basic-page-server spec table apply to
// this file.

void OnReadReq(int page);
void OnDeEscalate(int page);
void Resolve(int page);

struct Transport {
  template <typename F>
  void SendToClient(int to, MsgKind kind, int bytes, F&& fn);
  template <typename F>
  void SendToServer(int to, MsgKind kind, int bytes, F&& fn);
};

Transport net;

void GrantPath(int page) {
  net.SendToClient(1, MsgKind::kControlReply, 16, [page] { Resolve(page); });  // FP-GUARD: protocol-transition
}

// TP: the read request is the client engine's leg, not a protocol file's.
void ReadPath(int page) {
  net.SendToServer(0, MsgKind::kReadReq, 16, [page] { OnReadReq(page); });  // EXPECT: protocol-transition
}

// TP: a kind from another protocol's state machine.
void TokenPath(int page) {
  net.SendToClient(1, MsgKind::kTokenRecall, 16, [page] { Resolve(page); });  // EXPECT: protocol-transition
}

// TP: a grant resolves the requester's promise; it delivers to no handler.
void WrongHandler(int page) {
  net.SendToClient(1, MsgKind::kControlReply, 16, [page] { OnDeEscalate(page); });  // EXPECT: protocol-transition
}
