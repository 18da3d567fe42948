/// \file context.h
/// Shared simulation context threaded through clients and the server.

#ifndef PSOODB_CORE_CONTEXT_H_
#define PSOODB_CORE_CONTEXT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cc/deadlock_detector.h"
#include "config/params.h"
#include "core/history.h"
#include "core/messages.h"
#include "metrics/counters.h"
#include "metrics/histogram.h"
#include "sim/simulation.h"
#include "storage/database.h"

namespace psoodb::check {
class InvariantChecker;
}  // namespace psoodb::check

namespace psoodb::trace {
class Tracer;
}  // namespace psoodb::trace

namespace psoodb::core {

/// Everything protocol code needs besides its own node state.
struct SystemContext {
  sim::Simulation& sim;
  const config::SystemParams& params;
  storage::Database& db;
  metrics::Counters& counters;
  Transport& transport;
  /// This partition's deadlock detector, shared by the partition's
  /// servers. Owned by the System::Partition; with more than one
  /// partition, cc::DeadlockCoordinator joins the partitions' waits-for
  /// graphs so cycles that span them are found too.
  cc::DeadlockDetector* detector = nullptr;
  /// The partition's committed-history recorder: set at every layout when
  /// RunConfig::record_history is, null otherwise.
  History* history = nullptr;
  /// Cross-component invariant checker (null unless enabled). Owned by
  /// System; protocol code calls its hooks at grant/drain/de-escalation
  /// boundaries.
  check::InvariantChecker* invariants = nullptr;

  /// Structured event tracer (null unless SystemParams::trace /
  /// PSOODB_TRACE enabled it). Owned by System. Instrumentation sites must
  /// test for null before touching it — that test is the entire cost of
  /// tracing when disabled.
  trace::Tracer* tracer = nullptr;
  /// Always-on latency histograms (response / lock wait / callback round).
  /// Owned by System; null only in unit tests that build a bare context.
  metrics::LatencyRecorder* latency = nullptr;
  /// The partition's (commit time, response time) log, one entry per commit
  /// in event order. Owned by System; null in bare unit-test contexts.
  std::vector<std::pair<double, double>>* responses = nullptr;

  /// Next transaction id (monotonically increasing, shared by all clients
  /// of this context). Partitioned runs (sim/shard.h) stride the ids so
  /// every partition mints from a disjoint residue class and
  /// `txn % partitions` recovers the home partition; a one-partition run
  /// uses stride 1 and offset 0.
  storage::TxnId next_txn = 0;
  storage::TxnId txn_stride = 1;
  storage::TxnId txn_offset = 0;
  /// Running (EWMA) average transaction response time, used as the mean
  /// restart backoff for aborted transactions.
  double avg_response = 0.0;

  storage::TxnId NewTxn() { return ++next_txn * txn_stride + txn_offset; }

  void NoteResponse(double rt) {
    avg_response = avg_response == 0.0 ? rt : 0.9 * avg_response + 0.1 * rt;
  }
  double RestartDelayMean() const {
    return avg_response > 0.0 ? avg_response : params.initial_restart_delay;
  }

  /// Checks the callback-locking cache-validity invariant: a locally readable
  /// cached object must hold the latest committed version. Violations are
  /// counted (and indicate a protocol bug; tests assert the count is zero).
  void CheckCacheValidity(storage::ObjectId oid, storage::Version held) {
    if (held != db.committed_version(oid)) ++counters.validity_violations;
  }
};

}  // namespace psoodb::core

#endif  // PSOODB_CORE_CONTEXT_H_
