#include "analyzer/protocol_spec.h"

#include <algorithm>

namespace psoodb::analyzer {

namespace {

using Tokens = std::vector<Token>;

std::string FileStem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

bool HasExt(const std::string& path, const char* ext) {
  const std::string e(ext);
  return path.size() >= e.size() &&
         path.compare(path.size() - e.size(), e.size(), e) == 0;
}

/// The check diffs the protocol *implementation* units only: the real ones
/// under src/core/, plus `.cxx` fixtures that adopt a protocol stem.
bool InProtocolScope(const std::string& path) {
  if (HasExt(path, ".cxx")) return true;
  return HasExt(path, ".cpp") && (path.find("src/core/") == 0 ||
                                  path.find("/src/core/") != std::string::npos);
}

std::size_t MatchParen(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].Is("(")) ++depth;
    if (t[j].Is(")") && --depth == 0) return j;
  }
  return t.size();
}

bool IsHandlerIdent(const std::string& s) {
  return s.rfind("On", 0) == 0 && s.size() > 2 && s[2] >= 'A' && s[2] <= 'Z';
}

std::vector<ProtocolSpec> BuildSpecs() {
  // The read/write/callback legs every protocol shares are sent by the
  // engines — the requests by client.cpp (OS's object path by os.cpp), the
  // callbacks by server.cpp — so a protocol file keeps only its replies and
  // sub-protocol legs, and must not grow its own request or callback path.
  const std::set<std::string> kSharedLegs = {"kReadReq", "kWriteReq",
                                             "kCallbackReq"};
  const std::set<std::string> kAdaptiveOnly = {"kDeEscalateReq",
                                               "kDeEscalateReply"};
  const std::set<std::string> kTokenOnly = {"kTokenRecall", "kTokenFlush",
                                            "kCallbackAck"};
  std::set<std::string> kNonPage = kAdaptiveOnly;
  kNonPage.insert(kTokenOnly.begin(), kTokenOnly.end());
  std::set<std::string> kPageForbidden = kSharedLegs;
  kPageForbidden.insert(kNonPage.begin(), kNonPage.end());

  std::vector<ProtocolSpec> specs;

  {  // B-PS: page ships and page grants.
    ProtocolSpec s;
    s.stem = "ps";
    s.required = {"kDataReply", "kControlReply"};
    s.forbidden = kPageForbidden;
    s.handlers = {{"kDataReply", {}}, {"kControlReply", {}}};
    specs.push_back(std::move(s));
  }
  {  // Client: the legs every protocol shares — the page family's read and
     // write requests, commit, abort, the deferred callback ack, and the
     // page family's eviction notice.
    ProtocolSpec s;
    s.stem = "client";
    s.required = {"kReadReq",  "kWriteReq",    "kCommitReq",
                  "kAbortReq", "kCallbackAck", "kEvictionNotice"};
    s.forbidden = kAdaptiveOnly;
    s.forbidden.insert(
        {"kCallbackReq", "kTokenRecall", "kTokenFlush", "kDirtyInstall"});
    s.handlers = {{"kReadReq", {"OnReadReq"}},
                  {"kWriteReq", {"OnWriteReq"}},
                  {"kCommitReq", {"OnCommitReq"}},
                  {"kAbortReq", {"OnAbortReq"}},
                  {"kCallbackAck", {}},
                  {"kEvictionNotice", {"OnClientDroppedPage"}}};
    specs.push_back(std::move(s));
  }
  {  // Server: every protocol's callbacks, the object-lock write's grant,
     // and the commit and abort acks; no request, steal, token or
     // de-escalation traffic.
    ProtocolSpec s;
    s.stem = "server";
    s.required = {"kCallbackReq", "kControlReply"};
    s.forbidden = kNonPage;
    s.forbidden.insert({"kReadReq", "kWriteReq", "kDirtyInstall"});
    s.handlers = {{"kCallbackReq", {"OnCallback"}}, {"kControlReply", {}}};
    specs.push_back(std::move(s));
  }
  {  // O-OS: object server — its own object read request and object ships,
     // the shared write request, and object eviction notices.
    ProtocolSpec s;
    s.stem = "os";
    s.required = {"kReadReq", "kWriteReq", "kDataReply", "kEvictionNotice"};
    s.forbidden = kNonPage;
    s.forbidden.insert("kCallbackReq");
    s.handlers = {{"kReadReq", {"OnObjectReadReq"}},
                  {"kWriteReq", {"OnWriteReq"}},
                  {"kEvictionNotice", {"OnObjectEvictionNotice"}},
                  {"kDataReply", {}}};
    specs.push_back(std::move(s));
  }
  {  // PS-OO: page ships with object registrations; the object-lock write
     // is the shared one.
    ProtocolSpec s;
    s.stem = "ps_oo";
    s.required = {"kDataReply"};
    s.forbidden = kPageForbidden;
    s.handlers = {{"kDataReply", {}}};
    specs.push_back(std::move(s));
  }
  {  // PS-OA: page ships and object grants (adaptive callbacks).
    ProtocolSpec s;
    s.stem = "ps_oa";
    s.required = {"kDataReply", "kControlReply"};
    s.forbidden = kPageForbidden;
    s.handlers = {{"kDataReply", {}}, {"kControlReply", {}}};
    specs.push_back(std::move(s));
  }
  {  // PS-AA: adaptive granularity — adds the de-escalation sub-protocol.
    ProtocolSpec s;
    s.stem = "ps_aa";
    s.required = {"kDataReply", "kControlReply"};
    s.required.insert(kAdaptiveOnly.begin(), kAdaptiveOnly.end());
    s.forbidden = kSharedLegs;
    s.forbidden.insert(kTokenOnly.begin(), kTokenOnly.end());
    s.handlers = {{"kDeEscalateReq", {"OnDeEscalate"}},
                  {"kDeEscalateReply", {}},
                  {"kDataReply", {}},
                  {"kControlReply", {}}};
    specs.push_back(std::move(s));
  }
  {  // PS-WT: write tokens — the recall, the flush and the grant that may
     // carry the page image.
    ProtocolSpec s;
    s.stem = "ps_wt";
    s.required = {"kTokenRecall", "kTokenFlush", "kCallbackAck",
                  "kDataReply", "kControlReply"};
    s.forbidden = kSharedLegs;
    s.forbidden.insert(kAdaptiveOnly.begin(), kAdaptiveOnly.end());
    s.handlers = {{"kTokenRecall", {"OnTokenRecall"}},
                  {"kTokenFlush", {"OnDirtyInstall"}},
                  {"kCallbackAck", {}},
                  {"kDataReply", {}},
                  {"kControlReply", {}}};
    specs.push_back(std::move(s));
  }

  std::sort(specs.begin(), specs.end(),
            [](const ProtocolSpec& a, const ProtocolSpec& b) {
              return a.stem < b.stem;
            });
  return specs;
}

}  // namespace

const std::vector<ProtocolSpec>& ProtocolSpecs() {
  static const std::vector<ProtocolSpec> specs = BuildSpecs();
  return specs;
}

const ProtocolSpec* FindProtocolSpec(const std::string& stem) {
  for (const ProtocolSpec& s : ProtocolSpecs()) {
    if (s.stem == stem) return &s;
  }
  return nullptr;
}

std::vector<Finding> RunProtocolChecks(const LexedFile& f) {
  std::vector<Finding> out;
  if (!InProtocolScope(f.path)) return out;
  const ProtocolSpec* spec = FindProtocolSpec(FileStem(f.path));
  if (spec == nullptr) return out;
  const Tokens& t = f.tokens;

  // Every `MsgKind::kX` mention, in order.
  struct Mention {
    std::string kind;
    std::size_t pos;
    int line;
  };
  std::vector<Mention> mentions;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].Is("MsgKind") && t[i + 1].Is("::") && t[i + 2].IsIdent()) {
      mentions.push_back(Mention{t[i + 2].text, i + 2, t[i + 2].line});
    }
  }

  std::set<std::string> seen;
  for (const Mention& m : mentions) seen.insert(m.kind);
  for (const std::string& req : spec->required) {
    if (seen.count(req) == 0) {
      out.push_back(Finding{
          f.path, 1, kCheckProtocolTransition,
          "protocol '" + spec->stem + "' never mentions required MsgKind::" +
              req + " — a state-machine leg of the paper's protocol is "
              "missing",
          false, "", ""});
    }
  }
  for (const Mention& m : mentions) {
    if (spec->forbidden.count(m.kind) != 0) {
      out.push_back(Finding{
          f.path, m.line, kCheckProtocolTransition,
          "MsgKind::" + m.kind + " is not part of protocol '" + spec->stem +
              "' — this kind belongs to another protocol's state machine",
          false, "", ""});
    }
  }

  // Send spans: the deliver lambda of a SendToClient/SendToServer call must
  // invoke only the handler(s) the spec pairs with the kind it sends.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].IsIdent() ||
        (!t[i].Is("SendToClient") && !t[i].Is("SendToServer")) ||
        !t[i + 1].Is("(")) {
      continue;
    }
    const std::size_t open = i + 1;
    const std::size_t close = MatchParen(t, open);
    std::vector<const Mention*> kinds;
    for (const Mention& m : mentions) {
      if (m.pos > open && m.pos < close) kinds.push_back(&m);
    }
    if (kinds.empty()) continue;
    std::vector<std::pair<std::string, int>> handlers;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (t[j].IsIdent() && IsHandlerIdent(t[j].text)) {
        handlers.emplace_back(t[j].text, t[j].line);
      }
    }
    for (const Mention* m : kinds) {
      auto it = spec->handlers.find(m->kind);
      if (it == spec->handlers.end()) continue;
      const std::set<std::string>& allowed = it->second;
      // With several kinds in one send (conditional replies), a handler is
      // wrong only if no kind in the span allows it.
      for (const auto& [name, line] : handlers) {
        bool ok = false;
        for (const Mention* k : kinds) {
          auto ai = spec->handlers.find(k->kind);
          if (ai != spec->handlers.end() && ai->second.count(name) != 0) {
            ok = true;
            break;
          }
        }
        if (!ok) {
          out.push_back(Finding{
              f.path, m->line, kCheckProtocolTransition,
              "send of MsgKind::" + m->kind + " in protocol '" + spec->stem +
                  "' delivers to '" + name + "', which the spec does not "
                  "pair with this kind" +
                  (allowed.empty()
                       ? " (this kind resolves a promise, not a handler)"
                       : ""),
              false, "", ""});
        }
      }
      break;  // report a bad handler once per span, against the first kind
    }
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.message < b.message;
  });
  return out;
}

}  // namespace psoodb::analyzer
