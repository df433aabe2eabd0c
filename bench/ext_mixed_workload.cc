// Extension experiment: the conclusion's mixed-workload claim.
//
// "Taken together these results suggest that with a mix of real applications
// having both independent and non-independent demands, a cluster size
// somewhere in the range of 4 to 16 processors would be optimal for our
// system."  (Section 6.)
//
// The paper never ran this experiment -- Figures 7c and 7d pull in opposite
// directions (independent faults want tiny clusters, shared faults want
// moderate ones) and the conclusion interpolates.  Here we run the mix: 8
// processors executing independent sequential programs interleaved with 8
// processors of one SPMD program doing fault/barrier/unmap rounds, across
// cluster sizes.

#include <cstdio>

#include "src/hkernel/workloads.h"
#include "src/hmetrics/bench_main.h"

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("ext_mixed_workload");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  printf("Extension: mixed workload (8 independent + 8 SPMD processors),\n");
  printf("mean fault latency vs cluster size (us; lower is better)\n\n");
  printf("%-10s %12s %12s %14s %12s\n", "csize", "fault(us)", "p95(us)", "replications",
         "wd-retries");
  // The mean is dominated by the independent side's cheap faults; the SPMD
  // side's pain shows in the tail, so score configurations by p95.
  double best = 1e18;
  unsigned best_cs = 0;
  hmetrics::BenchSeries& out = report.AddSeries("mixed_fault");
  for (unsigned cs : {1u, 2u, 4u, 8u, 16u}) {
    hkernel::FaultTestParams params;
    params.cluster_size = cs;
    params.active_procs = 16;
    params.pages = 8;      // private pages per independent program
    params.iterations = opts.smoke ? 2 : 3;  // SPMD rounds
    params.warmup = 1;
    params.warmup_time = hsim::UsToTicks(2000);
    const hkernel::FaultTestResult r = RunMixedFaultTest(params);
    printf("%-10u %12.1f %12.1f %14llu %12llu\n", cs, r.latency.mean_us(),
           hsim::TicksToUs(r.latency.percentile(95)),
           static_cast<unsigned long long>(r.counters.replications),
           static_cast<unsigned long long>(r.counters.rpc_would_deadlock));
    const double p95 = hsim::TicksToUs(r.latency.percentile(95));
    out.AddPoint({{"cluster_size", static_cast<double>(cs)},
                  {"mean_us", r.latency.mean_us()},
                  {"p95_us", p95},
                  {"replications", static_cast<double>(r.counters.replications)},
                  {"would_deadlock", static_cast<double>(r.counters.rpc_would_deadlock)}});
    if (p95 < best) {
      best = p95;
      best_cs = cs;
    }
  }
  printf("\nBest cluster size for the mix by p95 fault latency: %u "
         "(the conclusion predicts 4..16)\n", best_cs);
  report.AddSeries("best").AddPoint({{"cluster_size", static_cast<double>(best_cs)},
                                     {"p95_us", best}});
  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
