/// \file params.h
/// System/resource parameters (paper Table 1) and workload parameters
/// (paper Table 2). All values default to the paper's settings; everything is
/// overridable. Where the technical report's OCR was ambiguous, values were
/// reconstructed from the companion studies the model extends ([Care91],
/// [Fran92a], [Fran93]) — see DESIGN.md §3.

#ifndef PSOODB_CONFIG_PARAMS_H_
#define PSOODB_CONFIG_PARAMS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "storage/types.h"

namespace psoodb::config {

/// Which design to run: the five of Section 3, plus the write-token
/// extension of Section 6.1 (implemented here as future work realized).
enum class Protocol {
  kPS,    ///< page server: page transfer/locking/callbacks
  kOS,    ///< object server: object transfer/locking/callbacks
  kPSOO,  ///< page transfer, object locking, object callbacks
  kPSOA,  ///< page transfer, object locking, adaptive callbacks
  kPSAA,  ///< page transfer, adaptive locking, adaptive callbacks
  kPSWT,  ///< page transfer, object locking, write token per page (merge-free)
};

const char* ProtocolName(Protocol p);
/// The five designs evaluated in the paper's Section 5.
std::vector<Protocol> AllProtocols();
/// The paper's five plus the PS-WT write-token extension.
std::vector<Protocol> AllProtocolsExtended();

/// How committed updates reach the server (Section 6.1).
enum class CommitMode {
  /// Clients ship whole updated pages at commit; the server merges/installs
  /// them (the approach evaluated throughout the paper's Section 5).
  kShipPages,
  /// "Redo-at-server": clients ship only WAL log records; the server
  /// replays the updates against its own page copies. Smaller commit
  /// messages, but the server pays replay CPU and needs every base page in
  /// memory (chosen for the initial version of SHORE [Care94]).
  kRedoAtServer,
};

/// Paper Table 1: system resources and overheads.
struct SystemParams {
  int num_clients = 10;            ///< NumClients
  /// Servers with range-partitioned data (Section 3: "extensions to
  /// multiple servers with partitioned data are straightforward"). Each
  /// server owns a contiguous page range with its own CPU, disks, buffer
  /// pool, lock tables and copy tables; deadlock detection stays central.
  int num_servers = 1;
  double client_mips = 15.0;       ///< ClientCPU
  double server_mips = 30.0;       ///< ServerCPU
  int db_pages = 1250;             ///< DatabaseSize (5 MB of 4 KB pages)
  int objects_per_page = 20;       ///< ObjectsPerPage
  double client_buf_fraction = 0.25;  ///< ClientBufSize (fraction of DB)
  double server_buf_fraction = 0.50;  ///< ServerBufSize (fraction of DB)
  int server_disks = 2;            ///< ServerDisks
  double min_disk_time = 0.010;    ///< MinDiskTime (seconds)
  double max_disk_time = 0.030;    ///< MaxDiskTime (seconds)
  double network_mbps = 80.0;      ///< NetworkBandwidth
  int page_size_bytes = 4096;      ///< PageSize
  int control_msg_bytes = 256;     ///< ControlMsgSize
  double fixed_msg_inst = 20000;   ///< FixedMsgInst (per message, each end)
  double per_byte_msg_inst = 10000.0 / 4096.0;  ///< PerByteMsgInst
  double lock_inst = 300;          ///< LockInst (per lock/unlock pair)
  double register_copy_inst = 300; ///< RegisterCopyInst (per (un)register)
  double disk_overhead_inst = 5000;  ///< DiskOverheadInst (CPU per I/O)
  double copy_merge_inst = 300;    ///< CopyMergeInst (per differing object)
  /// Client CPU to process one object after it is locked; doubled for writes
  /// (Section 4.2). Reconstructed constant; see DESIGN.md.
  double object_inst = 5000;
  double think_time = 0.0;         ///< between transactions (closed system)
  /// Commit forces one log I/O at the server (WAL, no-force for data).
  bool commit_log_io = true;
  /// Aborted transactions are resubmitted (with the same reference string)
  /// after an exponentially distributed delay with mean equal to the running
  /// average response time, a la Carey/Livny. Without it, extreme-contention
  /// configurations livelock on repeated mutual deadlocks.
  bool restart_backoff = true;
  /// Initial mean restart delay before any commit has been observed.
  double initial_restart_delay = 0.1;
  /// Commit update propagation (Section 6.1): ship pages vs redo-at-server.
  CommitMode commit_mode = CommitMode::kShipPages;
  /// Redo-at-server: bytes of log record shipped per updated object.
  int log_record_bytes = 64;  // header; plus the object's after-image
  /// Redo-at-server: CPU instructions to replay one object update.
  double redo_apply_inst = 1000;

  // --- Size-changing updates (Section 6.1) --------------------------------
  /// Probability that an object update grows the object. When concurrent
  /// growth overflows a page at install time, the server forwards an object
  /// (a la [Astr76]): extra CPU plus an anchor-page disk write.
  double size_change_prob = 0.0;
  /// Maximum growth per growing update, as a fraction of the object size.
  double growth_fraction_max = 0.5;
  /// Initial page fill fraction (slack absorbs some growth before overflow).
  double initial_fill = 0.8;
  /// CPU instructions to forward an object out of an overflowing page.
  double forward_inst = 2000;
  std::uint64_t seed = 42;

  // --- Invariant checking (src/check/invariants.h) ------------------------
  /// Enables the cross-component invariant checker (hooks at callback-drain,
  /// write-grant and de-escalation boundaries plus periodic full sweeps).
  /// Also enabled by the PSOODB_INVARIANTS=1 environment variable.
  bool invariant_checks = false;
  /// Abort (with full context) on the first violation instead of recording.
  bool invariant_failfast = false;
  /// Run a full cross-component state sweep every N simulation events
  /// (0 = check only at protocol hooks).
  std::uint64_t invariant_event_period = 1000;
  /// TEST ONLY — seeded protocol bug: write-request handlers skip waiting
  /// for their callback batch to drain before granting write permission.
  /// Exists to prove the invariant checker catches real protocol bugs
  /// (see tests/invariant_test.cpp); never enable outside tests.
  bool test_skip_callback_drain = false;
  /// TEST ONLY — seeded protocol bug: the abort handler skips releasing the
  /// aborting transaction's locks (the runtime twin of the analyzer's
  /// seeded abort-path lock leak). Exists to prove the same defect class is
  /// caught at runtime by the invariant checker's OnAbortReleased hook (see
  /// tests/invariant_test.cpp); never enable outside tests.
  bool test_skip_abort_release = false;

  // --- Event tracing (src/trace/trace.h) ----------------------------------
  /// Enables the deterministic event tracer and per-txn latency breakdown.
  /// Also enabled by the PSOODB_TRACE=1 environment variable. Off by
  /// default: instrumentation sites then reduce to one null-pointer test
  /// and simulation results are bit-identical to an untraced run.
  bool trace = false;
  /// Trace ring-buffer capacity in events; the oldest events are dropped
  /// once exceeded (the drop count is reported in the sink headers).
  std::uint64_t trace_buffer_events = 1 << 16;
  /// When >= 0, restricts the recorded event stream to this page. Also
  /// settable via PSOODB_TRACE_PAGE=<n>; events that carry no page id are
  /// filtered out.
  storage::PageId trace_page = -1;

  // --- Time-series telemetry (src/metrics/timeseries.h) -------------------
  /// Enables the deterministic time-series telemetry registry: kernel /
  /// protocol / storage counters and gauges sampled every `telemetry_tick`
  /// simulated seconds, serialized to a TELEMETRY_*.jsonl sink and (when
  /// tracing is also on) to Chrome counter tracks. Off by default: the
  /// registry is then never built and results are bit-identical to an
  /// untelemetered run. Also settable via PSOODB_TELEMETRY — any non-empty
  /// value enables except "0", which force-disables (so benches that default
  /// telemetry on can be turned off from the environment).
  bool telemetry = false;
  /// Sampling interval in simulated seconds. Contention experiments have
  /// response times of 0.1-10 s, so 0.25 s resolves per-window behavior at
  /// a few hundred rows per run; also settable via PSOODB_TELEMETRY_TICK.
  double telemetry_tick = 0.25;

  int object_size_bytes() const { return page_size_bytes / objects_per_page; }
  int client_buf_pages() const {
    int n = static_cast<int>(db_pages * client_buf_fraction);
    return n > 0 ? n : 1;
  }
  int client_buf_objects() const {
    return client_buf_pages() * objects_per_page;
  }
  int server_buf_pages() const {
    int n = static_cast<int>(db_pages * server_buf_fraction);
    return n > 0 ? n : 1;
  }
  /// CPU instructions to send or receive a message of `bytes`.
  double MsgInst(int bytes) const {
    return fixed_msg_inst + per_byte_msg_inst * bytes;
  }
  /// Index of the server owning `page` (range partitioning).
  int ServerOfPage(storage::PageId page) const {
    const int per = (db_pages + num_servers - 1) / num_servers;
    int s = page / per;
    return s < num_servers ? s : num_servers - 1;
  }
  /// Half-open page range [first, last) owned by server `s`, using the same
  /// ceil-divide arithmetic as ServerOfPage. The last server's range is
  /// remainder-short when db_pages % num_servers != 0; the two functions
  /// agree exactly and the ranges tile [0, db_pages) with no gap or overlap.
  std::pair<storage::PageId, storage::PageId> ServerPageRange(int s) const {
    const int per = (db_pages + num_servers - 1) / num_servers;
    const storage::PageId first = std::min(s * per, db_pages);
    const storage::PageId last = std::min((s + 1) * per, db_pages);
    return {first, last};
  }
  /// Pages owned by server `s` (the size of ServerPageRange(s)).
  int PagesOwnedByServer(int s) const {
    auto [first, last] = ServerPageRange(s);
    return last - first;
  }
  /// Server `s`'s share of the total server buffer, proportional to the
  /// pages it actually owns (ServerPageRange). An even split skews the
  /// buffer/ownership ratio whenever db_pages % num_servers != 0: every
  /// server but the last would get buffer for pages it does not own while
  /// the last is short-changed relative to its (shorter) range.
  int ServerBufPagesFor(int s) const {
    const long total = server_buf_pages();
    const long share = total * PagesOwnedByServer(s) / db_pages;
    return share > 0 ? static_cast<int>(share) : 1;
  }

  // --- Intra-run parallel simulation (src/sim/shard.h) --------------------
  /// When > 0 and there are several servers, the simulation runs
  /// partitioned by server: each server (and the clients homed on it) gets
  /// its own event loop, and up to `sim_shards` worker threads execute the
  /// partitions under conservative time windows. Results are byte-identical
  /// at any sim_shards >= 1 (the partition structure is fixed by
  /// num_servers; the thread count only changes which thread runs which
  /// partition). 0, or a single server, = one event loop with every node on
  /// one shared network: the paper's model. Also settable via
  /// PSOODB_SIM_SHARDS=<n>.
  int sim_shards = 0;
  /// One-way propagation latency (seconds) of the inter-partition link when
  /// the run has several partitions; it is the conservative lookahead
  /// bound, so it must then be > 0. Cross-partition messages pay this on
  /// top of the per-byte wire time; intra-partition traffic uses the
  /// partition's own network segment.
  double cross_partition_latency = 100e-6;
  /// Minimum simulated time (seconds) between union-graph scans of the
  /// cross-partition deadlock coordinator. Cycles confined to one partition
  /// are still caught immediately by that partition's detector; only cycles
  /// spanning partitions wait — up to this long — for the next scan. The
  /// coordinator always scans before declaring a stall, so a cross-partition
  /// deadlock that idles the whole system is resolved immediately regardless
  /// of the interval. The default adds at most 20ms of simulated wait to a
  /// cross-partition victim — noise next to multi-second contention response
  /// times — while keeping the scan off the serial critical path. Must be
  /// >= 0; 0 scans at every window whose edge set changed (the pre-throttle
  /// behaviour, ~100x more scans under load).
  double cross_deadlock_interval = 20e-3;
};

/// Ordering of object references within a transaction (Section 4.2).
enum class AccessPattern {
  kClustered,    ///< all referenced objects of a page referenced together
  kUnclustered,  ///< references to objects on different pages interleave
};

/// A database page range a client directs accesses to.
struct RegionSpec {
  storage::PageId lo = 0;       ///< first page (inclusive)
  storage::PageId hi = 0;       ///< last page (inclusive)
  double access_prob = 1.0;     ///< probability a page access targets this region
  double write_prob = 0.0;      ///< per-object probability a read becomes an update
};

/// One object reference of a custom reference string (mirrors
/// workload::AccessOp; duplicated here to keep config dependency-free).
struct CustomAccess {
  storage::ObjectId oid;
  bool is_write;
};

/// User-supplied transaction generator: given (client, transaction ordinal),
/// produce the reference string. Enables workloads beyond the hot/cold
/// region model (e.g. pointer-chasing traversals a la OO1/OO7). Must be
/// deterministic in its arguments for reproducible runs.
using CustomGenerator =
    std::function<std::vector<CustomAccess>(storage::ClientId client,
                                            std::uint64_t txn_ordinal)>;

/// Paper Table 2: per-client access pattern.
struct WorkloadParams {
  std::string name = "UNIFORM";
  int trans_size_pages = 30;    ///< TransSize: pages accessed per transaction
  int page_locality_min = 1;    ///< PageLocality lower bound (objects/page)
  int page_locality_max = 7;    ///< PageLocality upper bound (inclusive)
  AccessPattern pattern = AccessPattern::kUnclustered;
  /// regions[c] = the region list for client c (probabilities sum to 1).
  std::vector<std::vector<RegionSpec>> client_regions;
  /// Object location swaps applied to the layout at startup (Interleaved
  /// PRIVATE declusters hot objects across page pairs).
  std::vector<std::pair<storage::ObjectId, storage::ObjectId>> layout_swaps;
  /// When set, replaces the region-based generator entirely; trans_size /
  /// locality / regions are ignored (client_regions may stay empty). The
  /// System's footprint assertion then uses `custom_max_pages`.
  CustomGenerator custom_generator;
  /// Upper bound on distinct pages one custom transaction touches (used for
  /// the client-cache footprint check). Required with custom_generator.
  int custom_max_pages = 0;

  double AvgLocality() const {
    return (page_locality_min + page_locality_max) / 2.0;
  }
};

/// Locality settings used throughout Section 5: both average 120 objects
/// per transaction.
enum class Locality {
  kLow,   ///< TransSize 30 pages, PageLocality 1-7 (avg 4)
  kHigh,  ///< TransSize 10 pages, PageLocality 8-16 (avg 12)
};

// --- Table 2 preset builders -----------------------------------------------
// `write_prob` is the per-object update probability (the x-axis of the
// paper's figures). Region sizes scale with db_pages so the 9x scale-up
// experiments (Figures 12-14) reestablish the same operating conditions.

/// HOTCOLD: 80% of accesses to a private 50-page hot region, 20% uniform.
WorkloadParams MakeHotCold(const SystemParams& sys, Locality loc,
                           double write_prob);

/// UNIFORM: all accesses uniform over the whole database.
WorkloadParams MakeUniform(const SystemParams& sys, Locality loc,
                           double write_prob);

/// HICON: all clients direct 80% of accesses to the same 250-page region.
WorkloadParams MakeHicon(const SystemParams& sys, Locality loc,
                         double write_prob);

/// PRIVATE: 80% to a private 25-page hot region (updatable), 20% to a shared
/// read-only cold half. Only the high-locality setting is meaningful
/// (Section 5.5); TransSize 10, PageLocality 8-16.
WorkloadParams MakePrivate(const SystemParams& sys, double write_prob);

/// Interleaved PRIVATE: PRIVATE with the hot objects of client pairs
/// interleaved across shared pages — pure false sharing (Section 5.5).
WorkloadParams MakeInterleavedPrivate(const SystemParams& sys,
                                      double write_prob);

}  // namespace psoodb::config

#endif  // PSOODB_CONFIG_PARAMS_H_
