// Interactive-style experiment driver: pick a protocol, workload, write
// probability and system knobs from the command line and get the full
// metric readout. Useful for exploring the design space beyond the paper's
// figures.
//
// Example (all on one command line):
//   $ ./build/examples/protocol_explorer --protocol=ps-aa --workload=hicon
//         --write-prob=0.2 --locality=high --clients=10 --commits=2000
//         --servers=2 --telemetry=telemetry.jsonl
//
// --telemetry=<path> turns on the time-series telemetry
// (SystemParams::telemetry) and writes its JSONL sink to <path>; read it
// with timeline_report.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "config/params.h"
#include "core/system.h"

namespace {

using namespace psoodb;

const char* Arg(int argc, char** argv, const char* name, const char* def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

config::Protocol ParseProtocol(const std::string& s) {
  if (s == "ps") return config::Protocol::kPS;
  if (s == "os") return config::Protocol::kOS;
  if (s == "ps-oo") return config::Protocol::kPSOO;
  if (s == "ps-oa") return config::Protocol::kPSOA;
  if (s == "ps-aa") return config::Protocol::kPSAA;
  if (s == "ps-wt") return config::Protocol::kPSWT;
  std::fprintf(stderr,
               "unknown protocol '%s' (ps|os|ps-oo|ps-oa|ps-aa|ps-wt)\n",
               s.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string proto_s = Arg(argc, argv, "protocol", "ps-aa");
  const std::string workload_s = Arg(argc, argv, "workload", "hotcold");
  const double write_prob = std::atof(Arg(argc, argv, "write-prob", "0.15"));
  const std::string locality_s = Arg(argc, argv, "locality", "low");
  const int clients = std::atoi(Arg(argc, argv, "clients", "10"));
  const int commits = std::atoi(Arg(argc, argv, "commits", "1500"));
  const int db_pages = std::atoi(Arg(argc, argv, "db-pages", "1250"));
  const int servers = std::atoi(Arg(argc, argv, "servers", "1"));
  const std::string telemetry = Arg(argc, argv, "telemetry", "");

  config::SystemParams sys;
  sys.num_clients = clients;
  sys.db_pages = db_pages;
  sys.num_servers = servers;
  sys.telemetry = !telemetry.empty();
  const auto loc = locality_s == "high" ? config::Locality::kHigh
                                        : config::Locality::kLow;

  config::WorkloadParams w;
  if (workload_s == "hotcold") {
    w = config::MakeHotCold(sys, loc, write_prob);
  } else if (workload_s == "uniform") {
    w = config::MakeUniform(sys, loc, write_prob);
  } else if (workload_s == "hicon") {
    w = config::MakeHicon(sys, loc, write_prob);
  } else if (workload_s == "private") {
    w = config::MakePrivate(sys, write_prob);
  } else if (workload_s == "interleaved") {
    w = config::MakeInterleavedPrivate(sys, write_prob);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' "
                 "(hotcold|uniform|hicon|private|interleaved)\n",
                 workload_s.c_str());
    return 1;
  }

  core::RunConfig rc;
  rc.warmup_commits = commits / 5;
  rc.measure_commits = commits;
  const auto protocol = ParseProtocol(proto_s);
  auto r = core::RunSimulation(protocol, sys, w, rc);
  if (!telemetry.empty()) {
    const std::string& jsonl = r.telemetry_jsonl;
    std::FILE* f = std::fopen(telemetry.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(jsonl.data(), 1, jsonl.size(), f) == jsonl.size();
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok) {
      std::fprintf(stderr, "cannot write %s\n", telemetry.c_str());
      return 1;
    }
    std::printf("wrote telemetry to %s\n", telemetry.c_str());
  }

  const auto& c = r.counters;
  auto per_txn = [&](std::uint64_t v) {
    return r.measured_commits
               ? static_cast<double>(v) / static_cast<double>(r.measured_commits)
               : 0.0;
  };
  std::printf(
      "=== %s on %s (write prob %.2f, %s locality, %d clients, %d server%s) "
      "===\n",
      config::ProtocolName(protocol), w.name.c_str(), write_prob,
      locality_s.c_str(), clients, servers, servers == 1 ? "" : "s");
  std::printf("throughput        %10.2f txns/sec\n", r.throughput);
  std::printf("response time     %10.0f ms (+/- %.0f ms, 90%% CI)\n",
              r.response_time.mean * 1000, r.response_time.half_width * 1000);
  std::printf("simulated         %10.1f seconds, %llu events\n", r.sim_seconds,
              static_cast<unsigned long long>(r.events));
  std::printf("utilization       server CPU %.2f | clients %.2f | disks %.2f "
              "| net %.2f\n",
              r.server_cpu_util, r.avg_client_cpu_util, r.disk_util,
              r.network_util);
  std::printf("per txn           %.1f msgs | %.1f read reqs | %.1f write reqs "
              "| %.2f callbacks\n",
              r.msgs_per_commit, per_txn(c.read_requests),
              per_txn(c.write_requests), per_txn(c.callbacks_sent));
  std::printf("cache             %.1f%% hit rate | %llu unavailable "
              "re-requests | %llu dirty evictions\n",
              100.0 * static_cast<double>(c.cache_hits) /
                  static_cast<double>(c.cache_hits + c.cache_misses + 1),
              static_cast<unsigned long long>(c.unavailable_rerequests),
              static_cast<unsigned long long>(c.dirty_evictions));
  std::printf("storage           %llu disk reads | %llu disk writes | %llu "
              "log writes | %llu merges (%llu objects)\n",
              static_cast<unsigned long long>(c.disk_reads),
              static_cast<unsigned long long>(c.disk_writes),
              static_cast<unsigned long long>(c.log_writes),
              static_cast<unsigned long long>(c.merges),
              static_cast<unsigned long long>(c.merged_objects));
  std::printf("concurrency       %llu lock waits | %llu deadlock restarts | "
              "%llu callbacks blocked\n",
              static_cast<unsigned long long>(c.lock_waits),
              static_cast<unsigned long long>(r.deadlocks),
              static_cast<unsigned long long>(c.callbacks_blocked));
  if (protocol == config::Protocol::kPSAA) {
    std::printf("adaptivity        %llu page grants | %llu object grants | "
                "%llu de-escalations\n",
                static_cast<unsigned long long>(c.page_lock_grants),
                static_cast<unsigned long long>(c.object_lock_grants),
                static_cast<unsigned long long>(c.deescalations));
  }
  if (c.validity_violations != 0) {
    std::printf("WARNING: %llu cache validity violations (protocol bug!)\n",
                static_cast<unsigned long long>(c.validity_violations));
  }
  return 0;
}
