/// \file trace_report.cpp
/// Offline summarizer for the compact JSONL trace sink (see
/// docs/OBSERVABILITY.md). Standalone on purpose — it links nothing from the
/// simulator, so it can digest traces from any build.
///
/// Usage:  trace_report [--top=N] [--aborts=N] [--window=SECONDS] FILE...
///
/// For each trace file it prints
///   * the run header (protocol, clients, servers, seed, events, drops),
///   * the committed-transaction phase breakdown (absolute seconds and the
///     share of the post-think total),
///   * the top-N contended pages and objects, ranked by total blocked
///     lock-acquire time spent on them, and
///   * for the last N deadlock aborts, a waits-for timeline: every event of
///     the aborted transaction plus every lock event naming it as the
///     blocking holder, within +/- window seconds of the abort.
///
/// Malformed input is a hard error (nonzero exit), not a silent skip: a
/// truncated or unclosed line, an event line without a kind, a missing meta
/// line, or a missing trailing summary line all indicate a corrupted or
/// cut-off trace, and summarizing partial data would mislead.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "jsonl_fields.h"

namespace {

using psoodb::jsonl::IntField;
using psoodb::jsonl::NumField;
using psoodb::jsonl::StrField;

// --- In-memory event model ----------------------------------------------------

struct Ev {
  double t = 0;
  double dur = 0;
  long long txn = 0;
  long long page = -1;
  long long a = -1;
  long long b = -1;
  long long node = 0;
  long long aux = 0;
  std::string kind;
};

struct Options {
  int top = 10;
  int aborts = 3;
  double window = 0.1;
};

const char* kPhaseOrder[] = {"think",     "backoff",       "client_cpu",
                             "network",   "lock_wait",     "callback_wait",
                             "server_cpu", "disk"};

void PrintEvent(const Ev& e) {
  std::printf("    t=%.6f %-12s node=%lld txn=%lld", e.t, e.kind.c_str(),
              e.node, e.txn);
  if (e.page >= 0) std::printf(" page=%lld", e.page);
  if (e.a >= 0) std::printf(" a=%lld", e.a);
  if (e.b >= 0) std::printf(" b=%lld", e.b);
  if (e.dur > 0) std::printf(" dur=%.6f", e.dur);
  std::printf("\n");
}

int Report(const char* path, const Options& opt) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open %s\n", path);
    return 1;
  }
  std::printf("=== %s ===\n", path);

  std::vector<Ev> events;
  std::string summary_line;
  std::string line;
  bool have_meta = false;
  long long lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    // Every sink line is a complete flat JSON object. A line that does not
    // close (or does not open) means the file was truncated mid-write or
    // corrupted — report it and fail rather than summarizing partial data.
    if (line.front() != '{' || line.back() != '}') {
      std::fprintf(stderr,
                   "trace_report: %s:%lld: malformed line (truncated?)\n",
                   path, lineno);
      return 1;
    }
    if (line.find("\"psoodb_trace\":1") != std::string::npos) {
      have_meta = true;
      std::printf(
          "protocol=%s clients=%lld servers=%lld seed=%lld events=%lld "
          "dropped=%lld\n",
          StrField(line, "protocol").c_str(), IntField(line, "clients"),
          IntField(line, "servers"), IntField(line, "seed"),
          IntField(line, "events"), IntField(line, "dropped"));
      const long long filter = IntField(line, "page_filter");
      if (filter >= 0) std::printf("page_filter=%lld\n", filter);
      continue;
    }
    if (line.find("\"summary\":1") != std::string::npos) {
      summary_line = line;
      continue;
    }
    Ev e;
    e.kind = StrField(line, "k");
    if (e.kind.empty()) {
      std::fprintf(stderr,
                   "trace_report: %s:%lld: event line without a \"k\" kind\n",
                   path, lineno);
      return 1;
    }
    e.t = NumField(line, "t");
    e.dur = NumField(line, "dur");
    e.txn = IntField(line, "txn", 0);
    e.page = IntField(line, "page");
    e.a = IntField(line, "a");
    e.b = IntField(line, "b");
    e.node = IntField(line, "node", 0);
    e.aux = IntField(line, "aux", 0);
    events.push_back(std::move(e));
  }
  if (!have_meta) {
    std::fprintf(stderr, "trace_report: %s has no psoodb_trace meta line\n",
                 path);
    return 1;
  }
  if (summary_line.empty()) {
    // The writer always ends with the summary line, so its absence means
    // the file was cut off before the run finished serializing.
    std::fprintf(stderr,
                 "trace_report: %s has no summary line (truncated?)\n", path);
    return 1;
  }

  // --- Phase breakdown (from the summary line's totals) ----------------
  {
    const long long commits = IntField(summary_line, "commits", 0);
    const long long violations = IntField(summary_line, "violations", 0);
    std::printf("\ncommitted txns: %lld   breakdown violations: %lld\n",
                commits, violations);
    double total = 0;
    for (const char* phase : kPhaseOrder) {
      if (std::strcmp(phase, "think") != 0) {
        total += NumField(summary_line, phase);
      }
    }
    std::printf("phase breakdown (sum over commits; %% of response total):\n");
    for (const char* phase : kPhaseOrder) {
      const double s = NumField(summary_line, phase);
      const bool in_total = std::strcmp(phase, "think") != 0;
      std::printf("  %-13s %12.6f s", phase, s);
      if (in_total && total > 0) {
        std::printf("  %5.1f%%", 100.0 * s / total);
      }
      std::printf("%s\n", in_total ? "" : "  (outside response window)");
    }
  }

  // --- Contention ranking ----------------------------------------------
  // lock_grant / lock_abort spans carry the blocked wait duration; key by
  // page (a < 0) or object (a >= 0).
  std::map<long long, double> page_wait;
  std::map<long long, double> object_wait;
  for (const Ev& e : events) {
    if (e.kind != "lock_grant" && e.kind != "lock_abort") continue;
    if (e.a >= 0) {
      object_wait[e.a] += e.dur;
    } else if (e.page >= 0) {
      page_wait[e.page] += e.dur;
    }
  }
  auto print_top = [&](const char* what,
                       const std::map<long long, double>& wait) {
    if (wait.empty()) return;
    std::vector<std::pair<long long, double>> ranked(wait.begin(), wait.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& x, const auto& y) {
                       return x.second > y.second;
                     });
    std::printf("\ntop %s by blocked lock-wait time:\n", what);
    const std::size_t n =
        std::min<std::size_t>(ranked.size(), static_cast<std::size_t>(opt.top));
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("  %-8lld %12.6f s\n", ranked[i].first, ranked[i].second);
    }
  };
  print_top("pages", page_wait);
  print_top("objects", object_wait);

  // --- Abort timelines --------------------------------------------------
  std::vector<const Ev*> abort_events;
  for (const Ev& e : events) {
    if (e.kind == "txn_abort") abort_events.push_back(&e);
  }
  if (!abort_events.empty()) {
    std::printf("\naborts: %zu (showing last %d, window +/-%.3fs)\n",
                abort_events.size(), opt.aborts, opt.window);
    const std::size_t first =
        abort_events.size() > static_cast<std::size_t>(opt.aborts)
            ? abort_events.size() - static_cast<std::size_t>(opt.aborts)
            : 0;
    for (std::size_t i = first; i < abort_events.size(); ++i) {
      const Ev& ab = *abort_events[i];
      std::printf("  -- abort of txn %lld at t=%.6f --\n", ab.txn, ab.t);
      for (const Ev& e : events) {
        if (e.t < ab.t - opt.window || e.t > ab.t + opt.window) continue;
        // The aborted transaction's own events, plus lock events where it is
        // the blocking holder (b carries the holder txn): the waits-for
        // neighborhood of the abort.
        const bool own = e.txn == ab.txn;
        const bool blocks =
            e.b == ab.txn && e.kind.compare(0, 5, "lock_") == 0;
        if (own || blocks) PrintEvent(e);
      }
    }
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--top=", 6) == 0) {
      opt.top = std::atoi(arg + 6);
    } else if (std::strncmp(arg, "--aborts=", 9) == 0) {
      opt.aborts = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--window=", 9) == 0) {
      opt.window = std::atof(arg + 9);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "usage: trace_report [--top=N] [--aborts=N] [--window=SECONDS] "
          "FILE...\n"
          "Summarizes psoodb JSONL traces (PSOODB_TRACE=1 runs): phase\n"
          "breakdown, most-contended pages/objects, abort timelines.\n");
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "trace_report: no input files (see --help for usage)\n");
    return 1;
  }
  int rc = 0;
  for (const char* f : files) rc |= Report(f, opt);
  return rc;
}
