/// \file protocol_spec.h
/// Declarative message state machines for the six cache-consistency
/// protocols of the paper (B-PS/O-PS/PS-OO/PS-OA/PS-AA/PS-WT families) and
/// for the legs all six share in the client engine (commit, abort, the
/// deferred callback ack, the eviction notice), and the
/// `protocol-transition` check that diffs each implementation against its
/// spec.
///
/// Each spec lists, for one translation unit (src/core/<stem>.cpp):
///
///   required   MsgKind enumerators the protocol must mention at least once
///              — a missing required kind means a leg of the paper's state
///              machine was dropped (e.g. PS-WT forgetting kTokenFlush);
///   forbidden  MsgKind enumerators the protocol must never mention — a
///              forbidden kind means protocol bleed (e.g. the base page
///              server speaking the adaptive de-escalation sub-protocol);
///   handlers   for a send of kind k (a SendToClient/SendToServer span whose
///              argument list names MsgKind::k), which On* handler(s) the
///              deliver lambda may invoke. Sends that resolve a promise
///              instead of invoking a handler list an empty set.
///
/// The check is scoped to the protocol sources themselves (stem is one of
/// the six or `client`, under src/core/) and to `.cxx` fixtures, so tests
/// and bench harnesses may mention any kind freely.

#ifndef PSOODB_TOOLS_ANALYZER_PROTOCOL_SPEC_H_
#define PSOODB_TOOLS_ANALYZER_PROTOCOL_SPEC_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer/checks.h"
#include "analyzer/token.h"

namespace psoodb::analyzer {

struct ProtocolSpec {
  std::string stem;  ///< protocol translation-unit stem, e.g. "ps_aa"
  std::set<std::string> required;
  std::set<std::string> forbidden;
  /// kind -> handler names a send span of that kind may invoke.
  std::map<std::string, std::set<std::string>> handlers;
};

/// The six protocol specs and the shared client spec, ordered by stem.
const std::vector<ProtocolSpec>& ProtocolSpecs();

/// The spec for `stem`, or nullptr when `stem` is not a protocol unit.
const ProtocolSpec* FindProtocolSpec(const std::string& stem);

/// Runs protocol-transition over one file. Findings ordered by line.
std::vector<Finding> RunProtocolChecks(const LexedFile& f);

}  // namespace psoodb::analyzer

#endif  // PSOODB_TOOLS_ANALYZER_PROTOCOL_SPEC_H_
