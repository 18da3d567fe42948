#include "results_json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "figure_harness.h"

namespace psoodb::bench {

namespace {

/// Minimal JSON emitter: enough for flat objects/arrays of numbers,
/// booleans and strings, with deterministic formatting.
class JsonWriter {
 public:
  std::string Take() { return std::move(out_); }

  void BeginObject() { Punct('{'); }
  void EndObject() { out_ += '}'; fresh_ = false; }
  void BeginArray() { Punct('['); }
  void EndArray() { out_ += ']'; fresh_ = false; }

  void Key(const char* k) {
    Comma();
    AppendString(k);
    out_ += ':';
    fresh_ = true;
  }
  void Value(const std::string& s) { Comma(); AppendString(s.c_str()); }
  void Value(bool b) { Comma(); out_ += b ? "true" : "false"; }
  void Value(double d) {
    Comma();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out_ += buf;
  }
  void Value(std::uint64_t v) {
    Comma();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
  }
  void Value(int v) { Value(static_cast<double>(v)); }

 private:
  void Comma() {
    if (!fresh_ && !out_.empty()) {
      char c = out_.back();
      if (c != '{' && c != '[' && c != ':') out_ += ',';
    }
    fresh_ = false;
  }
  void Punct(char c) {
    Comma();
    out_ += c;
    fresh_ = true;
  }
  void AppendString(const char* s) {
    out_ += '"';
    for (; *s != '\0'; ++s) {
      switch (*s) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(*s) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", *s);
            out_ += buf;
          } else {
            out_ += *s;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool fresh_ = true;
};

void WriteCounters(JsonWriter& w, const metrics::Counters& c) {
  w.BeginObject();
  w.Key("commits"); w.Value(c.commits);
  w.Key("aborts"); w.Value(c.aborts);
  w.Key("deadlocks"); w.Value(c.deadlocks);
  w.Key("msgs_total"); w.Value(c.msgs_total);
  w.Key("msgs_data"); w.Value(c.msgs_data);
  w.Key("msgs_control"); w.Value(c.msgs_control);
  w.Key("bytes_sent"); w.Value(c.bytes_sent);
  w.Key("read_requests"); w.Value(c.read_requests);
  w.Key("write_requests"); w.Value(c.write_requests);
  w.Key("callbacks_sent"); w.Value(c.callbacks_sent);
  w.Key("callbacks_blocked"); w.Value(c.callbacks_blocked);
  w.Key("callback_page_purges"); w.Value(c.callback_page_purges);
  w.Key("callback_object_marks"); w.Value(c.callback_object_marks);
  w.Key("deescalations"); w.Value(c.deescalations);
  w.Key("page_lock_grants"); w.Value(c.page_lock_grants);
  w.Key("object_lock_grants"); w.Value(c.object_lock_grants);
  w.Key("eviction_notices"); w.Value(c.eviction_notices);
  w.Key("cache_hits"); w.Value(c.cache_hits);
  w.Key("cache_misses"); w.Value(c.cache_misses);
  w.Key("unavailable_rerequests"); w.Value(c.unavailable_rerequests);
  w.Key("dirty_evictions"); w.Value(c.dirty_evictions);
  w.Key("disk_reads"); w.Value(c.disk_reads);
  w.Key("disk_writes"); w.Value(c.disk_writes);
  w.Key("log_writes"); w.Value(c.log_writes);
  w.Key("merges"); w.Value(c.merges);
  w.Key("merged_objects"); w.Value(c.merged_objects);
  w.Key("redo_objects"); w.Value(c.redo_objects);
  w.Key("token_transfers"); w.Value(c.token_transfers);
  w.Key("page_overflows"); w.Value(c.page_overflows);
  w.Key("forwards"); w.Value(c.forwards);
  w.Key("lock_waits"); w.Value(c.lock_waits);
  w.Key("validity_violations"); w.Value(c.validity_violations);
  w.EndObject();
}

void WriteRun(JsonWriter& w, const core::RunResult& r) {
  w.BeginObject();
  w.Key("protocol"); w.Value(std::string(config::ProtocolName(r.protocol)));
  w.Key("throughput"); w.Value(r.throughput);
  w.Key("response_time");
  w.BeginObject();
  w.Key("mean"); w.Value(r.response_time.mean);
  w.Key("half_width"); w.Value(r.response_time.half_width);
  w.EndObject();
  w.Key("sim_seconds"); w.Value(r.sim_seconds);
  w.Key("measured_commits"); w.Value(r.measured_commits);
  w.Key("deadlocks"); w.Value(r.deadlocks);
  w.Key("server_cpu_util"); w.Value(r.server_cpu_util);
  w.Key("avg_client_cpu_util"); w.Value(r.avg_client_cpu_util);
  w.Key("disk_util"); w.Value(r.disk_util);
  w.Key("network_util"); w.Value(r.network_util);
  w.Key("msgs_per_commit"); w.Value(r.msgs_per_commit);
  w.Key("stalled"); w.Value(r.stalled);
  w.Key("events"); w.Value(r.events);
  w.Key("latency");
  w.BeginObject();
  w.Key("p50"); w.Value(r.response_hist.Percentile(0.50));
  w.Key("p90"); w.Value(r.response_hist.Percentile(0.90));
  w.Key("p99"); w.Value(r.response_hist.Percentile(0.99));
  w.Key("max"); w.Value(r.response_hist.max());
  w.Key("mean_lock_wait"); w.Value(r.lock_wait_hist.mean());
  w.Key("mean_callback_wait"); w.Value(r.callback_round_hist.mean());
  w.EndObject();
  w.Key("counters");
  WriteCounters(w, r.counters);
  w.EndObject();
}

}  // namespace

std::string FigureResultsJson(
    const SweepOptions& options, const config::SystemParams& sys,
    const core::RunConfig& rc, int bench_threads,
    const std::vector<double>& write_probs,
    const std::vector<std::vector<core::RunResult>>& grid) {
  JsonWriter w;
  w.BeginObject();
  w.Key("figure"); w.Value(options.figure);
  w.Key("title"); w.Value(options.title);
  w.Key("expectation"); w.Value(options.expectation);
  w.Key("normalize_to_psaa"); w.Value(options.normalize_to_psaa);

  w.Key("config");
  w.BeginObject();
  w.Key("schema_version"); w.Value(std::uint64_t{2});
  w.Key("num_clients"); w.Value(static_cast<std::uint64_t>(sys.num_clients));
  w.Key("num_servers"); w.Value(static_cast<std::uint64_t>(sys.num_servers));
  w.Key("db_pages"); w.Value(static_cast<std::uint64_t>(sys.db_pages));
  w.Key("objects_per_page");
  w.Value(static_cast<std::uint64_t>(sys.objects_per_page));
  w.Key("seed"); w.Value(sys.seed);
  w.Key("warmup_commits");
  w.Value(static_cast<std::uint64_t>(rc.warmup_commits));
  w.Key("measure_commits");
  w.Value(static_cast<std::uint64_t>(rc.measure_commits));
  w.Key("bench_threads");
  w.Value(static_cast<std::uint64_t>(bench_threads));
  w.EndObject();

  w.Key("protocols");
  w.BeginArray();
  for (auto p : options.protocols) {
    w.Value(std::string(config::ProtocolName(p)));
  }
  w.EndArray();

  w.Key("points");
  w.BeginArray();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    w.BeginObject();
    w.Key("write_prob");
    w.Value(i < write_probs.size() ? write_probs[i] : 0.0);
    w.Key("runs");
    w.BeginArray();
    for (const auto& r : grid[i]) WriteRun(w, r);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.Take();
}

std::string KernelResultsJson(bool quick, int repetitions,
                              const std::vector<KernelScenarioResult>& rows) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench"); w.Value(std::string("kernel"));
  w.Key("schema_version"); w.Value(std::uint64_t{3});
  w.Key("quick"); w.Value(quick);
  w.Key("repetitions"); w.Value(static_cast<std::uint64_t>(repetitions));
  w.Key("scenarios");
  w.BeginArray();
  for (const KernelScenarioResult& r : rows) {
    w.BeginObject();
    w.Key("name"); w.Value(r.name);
    w.Key("events"); w.Value(r.events);
    w.Key("wall_seconds"); w.Value(r.wall_seconds);
    w.Key("events_per_sec"); w.Value(r.events_per_sec);
    w.Key("rep_events_per_sec");
    w.BeginArray();
    for (double rate : r.rep_events_per_sec) w.Value(rate);
    w.EndArray();
    if (r.serial_share >= 0) { w.Key("serial_share"); w.Value(r.serial_share); }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string FigureJsonFileName(const std::string& figure) {
  std::string name = "BENCH_";
  for (char c : figure) {
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return name + ".json";
}

bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  // Ensure exactly one trailing newline: the figure document has none, the
  // trace sinks already end with one (a doubled newline would put an empty
  // non-JSON line into the JSONL sinks).
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (ok && (json.empty() || json.back() != '\n')) {
    ok = std::fputc('\n', f) != EOF;
  }
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace psoodb::bench
