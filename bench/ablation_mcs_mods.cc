// Ablation: the two Distributed Lock modifications in isolation (simulator).
//
// Questions answered, one per design decision in DESIGN.md:
//   1. What does each modification buy uncontended?  (H1 removes the qnode
//      init store; H2 additionally removes the successor-check load+branch.)
//   2. What does H2's unconditional release cost under contention?  (Every
//      release with a successor repairs the queue: two extra swaps.)
//   3. How often does the swap-only release actually repair per variant?

#include <cstdio>

#include "src/hmetrics/bench_main.h"
#include "src/hsim/locks/stress.h"

namespace {

using hsim::LockKind;

void ContentionRow(LockKind kind, const char* name, const hmetrics::BenchOptions& opts,
                   hmetrics::BenchReport* report) {
  hsim::LockStressParams params;
  params.kind = kind;
  params.processors = 16;
  params.hold = 0;
  params.duration = hsim::UsToTicks(opts.smoke ? 2000 : 15000);
  const hsim::LockStressResult r = hsim::RunLockStress(params);
  const double uncontended = hsim::UncontendedPairLatencyUs(kind, opts.smoke ? 8 : 64);
  const double repair_rate = static_cast<double>(r.mcs_repairs) /
                             static_cast<double>(r.acquisitions ? r.acquisitions : 1);
  printf("%-8s %16.2f %14.1f %12llu %15.1f%%\n", name, uncontended, r.little_response_us(),
         static_cast<unsigned long long>(r.mcs_repairs), 100.0 * repair_rate);
  report->AddSeries("variant", {{"lock", hsim::LockKindName(kind)}})
      .AddPoint({{"uncontended_us", uncontended},
                 {"w_p16_h0_us", r.little_response_us()},
                 {"repairs", static_cast<double>(r.mcs_repairs)},
                 {"repairs_per_acquire", repair_rate}});
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("ablation_mcs_mods");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  printf("Ablation: MCS modifications H1 and H2 (simulator, 16 MHz HECTOR model)\n\n");
  printf("%-8s %16s %14s %12s %16s\n", "variant", "uncontended(us)", "W@p16,h0(us)",
         "repairs", "repairs/acquire");
  ContentionRow(LockKind::kMcs, "MCS", opts, &report);
  ContentionRow(LockKind::kMcsH1, "H1-MCS", opts, &report);
  ContentionRow(LockKind::kMcsH2, "H2-MCS", opts, &report);
  printf("\nReading: H1 is strictly better than MCS (cheaper uncontended, same\n"
         "contended behaviour).  H2 buys a further uncontended improvement at a\n"
         "constant contended repair cost -- the trade the paper makes because the\n"
         "kernel's coarse locks are mostly uncontended (and hierarchical\n"
         "clustering keeps them that way).\n");
  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
