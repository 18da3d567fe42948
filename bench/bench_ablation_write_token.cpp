// Ablation (Section 6.1): merging concurrent page updates (PS-OO / PS-AA)
// vs disallowing them with a per-page write token (PS-WT — the paper's
// stated future work, implemented here). The token avoids merge CPU but
// ships a page image on every inter-client update handoff; under false
// sharing the token ping-pongs.
//
// Three sweeps through the figure harness, so each writes its own
// BENCH/TRACE/TELEMETRY files and runs its points on the sweep thread pool.

#include <cstdio>

#include "figure_harness.h"

int main() {
  using namespace psoodb;
  struct Sweep {
    const char* figure;
    const char* title;
    bench::WorkloadFactory factory;
  };
  const Sweep sweeps[] = {
      {"Write token HOTCOLD", "HOTCOLD low locality",
       [](const config::SystemParams& s, double wp) {
         return config::MakeHotCold(s, config::Locality::kLow, wp);
       }},
      {"Write token PRIVATE", "PRIVATE (no sharing)",
       [](const config::SystemParams& s, double wp) {
         return config::MakePrivate(s, wp);
       }},
      {"Write token INTERLEAVED", "INTERLEAVED PRIVATE (false sharing)",
       [](const config::SystemParams& s, double wp) {
         return config::MakeInterleavedPrivate(s, wp);
       }},
  };
  const config::SystemParams sys;
  for (const Sweep& sw : sweeps) {
    bench::SweepOptions opt;
    opt.figure = sw.figure;
    opt.title = std::string(sw.title) +
                " — merging (PS-OO, PS-AA) vs a write token (PS-WT)";
    opt.expectation =
        "without write sharing PS-WT == PS-OO (no handoffs). Under false "
        "sharing the token bounces page images between paired clients, "
        "making PS-WT more communication-bound than merging — the reason "
        "the paper chose to merge (Section 6.1).";
    opt.protocols = {config::Protocol::kPSOO, config::Protocol::kPSWT,
                     config::Protocol::kPSAA};
    opt.write_probs = {0.1, 0.2, 0.3};
    const auto grid = bench::RunFigure(opt, sys, sw.factory);
    // Column 0 is PS-OO (merges at commit), column 1 PS-WT (handoffs).
    std::printf("%-8s%14s%14s\n", "wrprob", "WT handoffs", "OO merges");
    for (std::size_t wi = 0; wi < grid.size(); ++wi) {
      std::printf("%-8.2f%14llu%14llu\n", opt.write_probs[wi],
                  static_cast<unsigned long long>(
                      grid[wi][1].counters.token_transfers),
                  static_cast<unsigned long long>(grid[wi][0].counters.merges));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
