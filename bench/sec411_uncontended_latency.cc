// Regenerates the Section 4.1.1 result: the latency of an uncontended
// lock/unlock pair for the original and modified Distributed Locks and the
// spin lock.
//
// Paper (HECTOR, 16 MHz):
//   MCS     5.40 us
//   H2-MCS  3.69 us  (32% better than MCS)
//   Spin    3.65 us  (H2 within ~1% of spin)
//
// Absolute simulator values depend on where the lock word lives (here: one
// ring hop away, as kernel locks usually are); the relationships -- H1 beats
// MCS, H2 beats H1 and lands within a few percent of the spin lock -- are the
// reproduced result.

#include <cstdio>

#include "src/hmetrics/bench_main.h"
#include "src/hsim/locks/stress.h"

int main(int argc, char** argv) {
  using hsim::LockKind;
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("sec411_uncontended_latency");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  const int rounds = opts.smoke ? 8 : 64;
  report.SetParam("rounds", rounds);
  printf("Section 4.1.1: uncontended lock/unlock pair latency (lock one ring hop away)\n\n");
  printf("%-8s %12s %14s\n", "", "measured", "paper");
  const double mcs = hsim::UncontendedPairLatencyUs(LockKind::kMcs, rounds);
  const double h1 = hsim::UncontendedPairLatencyUs(LockKind::kMcsH1, rounds);
  const double h2 = hsim::UncontendedPairLatencyUs(LockKind::kMcsH2, rounds);
  const double spin = hsim::UncontendedPairLatencyUs(LockKind::kSpin35us, rounds);
  printf("%-8s %9.2f us %11s\n", "MCS", mcs, "5.40 us");
  printf("%-8s %9.2f us %11s\n", "H1-MCS", h1, "-");
  printf("%-8s %9.2f us %11s\n", "H2-MCS", h2, "3.69 us");
  printf("%-8s %9.2f us %11s\n", "Spin", spin, "3.65 us");
  printf("\nH2 improvement over MCS: %.0f%% (paper: 32%%)\n", 100.0 * (mcs - h2) / mcs);
  printf("H2 vs spin lock:         %+.0f%% (paper: +1%%)\n", 100.0 * (h2 - spin) / spin);

  const bool ok = h1 < mcs && h2 < h1 && h2 < spin * 1.15 && (mcs - h2) / mcs > 0.15;
  printf("\n%s\n", ok ? "Relationships match the paper." : "RELATIONSHIP MISMATCH!");

  struct {
    const char* name;
    double us;
  } rows[] = {{"mcs", mcs}, {"h1-mcs", h1}, {"h2-mcs", h2}, {"spin-35us", spin}};
  for (const auto& row : rows) {
    report.AddSeries("pair_latency_us", {{"lock", row.name}})
        .AddPoint({{"us", row.us}});
  }
  report.AddSeries("relationships")
      .AddPoint({{"h2_vs_mcs_improvement", (mcs - h2) / mcs},
                 {"h2_vs_spin", (h2 - spin) / spin},
                 {"ok", ok ? 1.0 : 0.0}});
  if (!hmetrics::WriteReport(opts, report)) {
    return 1;
  }
  return ok ? 0 : 1;
}
