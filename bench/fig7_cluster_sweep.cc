// Regenerates Figures 7c and 7d: page-fault response time with 16 faulting
// processes as a function of the cluster size (1, 2, 4, 8, 16).
//
// Paper claims checked:
//   7c (independent): small clusters are best; with cluster size <= 4 the
//       hybrid strategy does as well as fine-grained locking (no degradation
//       at all); 16 processes in 4 clusters of 4 perform like 4 processes in
//       one 16-processor cluster -- hierarchical clustering localizes
//       requests.
//   7d (shared): moderate cluster sizes win.  Very small clusters pay for
//       inter-cluster operations (null RPC ~27 us, cluster-wide lookup +
//       descriptor replication ~88 us); one big cluster pays lock and
//       reserve-bit contention.  Deadlock-avoidance retries are common at
//       small cluster sizes, independent of strategy.

#include <cstdio>

#include "src/hkernel/workloads.h"
#include "src/hmetrics/bench_main.h"

namespace {

using hkernel::FaultTestParams;
using hkernel::FaultTestResult;
using hsim::LockKind;

const unsigned kClusterSizes[] = {1, 2, 4, 8, 16};

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("fig7_cluster_sweep");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  printf("Figure 7c: independent-fault test, p=16, response time vs cluster size\n");
  printf("(page-fault response time in us, Little's-law W)\n\n");
  printf("%-18s", "lock \\ csize");
  for (unsigned cs : kClusterSizes) {
    printf("%9u", cs);
  }
  printf("\n");
  double dl_cs4 = 0;
  for (LockKind kind : {LockKind::kMcsH2, LockKind::kSpin35us}) {
    hmetrics::BenchSeries& out = report.AddSeries(
        "fault_response_us", {{"lock", hsim::LockKindName(kind)}, {"test", "independent"}});
    printf("%-18s", hsim::LockKindName(kind));
    for (unsigned cs : kClusterSizes) {
      FaultTestParams params;
      params.lock_kind = kind;
      params.cluster_size = cs;
      params.active_procs = 16;
      params.pages = 8;
      params.warmup_time = hsim::UsToTicks(opts.smoke ? 1000 : 2500);
      params.measure_time = hsim::UsToTicks(opts.smoke ? 3000 : 12000);
      const FaultTestResult r = RunIndependentFaultTest(params);
      printf("%9.0f", r.little_response_us());
      out.AddPoint({{"cluster_size", static_cast<double>(cs)},
                    {"w_us", r.little_response_us()}});
      if (kind == LockKind::kMcsH2 && cs == 4) {
        dl_cs4 = r.little_response_us();
      }
    }
    printf("\n");
  }
  {
    // Cross-check with Figure 7a: 16 processes in 4 clusters of 4 should
    // match 4 processes in one 16-processor cluster.
    FaultTestParams params;
    params.cluster_size = 16;
    params.active_procs = 4;
    params.pages = 8;
    params.warmup_time = hsim::UsToTicks(opts.smoke ? 1000 : 2500);
    params.measure_time = hsim::UsToTicks(opts.smoke ? 3000 : 12000);
    const FaultTestResult r = RunIndependentFaultTest(params);
    printf("\n16 procs in 4x4 clusters: %.0f us vs 4 procs in one 16-cluster: %.0f us\n"
           "(the paper finds these equal: clustering localizes independent requests)\n\n",
           dl_cs4, r.little_response_us());
    report.AddSeries("localization_crosscheck")
        .AddPoint({{"dl_16p_in_4x4_us", dl_cs4},
                   {"dl_4p_in_16_us", r.little_response_us()}});
  }

  printf("Figure 7d: shared-fault test, p=16, response time vs cluster size\n");
  printf("(mean page-fault response time in us; wd = deadlock-avoidance retries)\n\n");
  printf("%-18s", "lock \\ csize");
  for (unsigned cs : kClusterSizes) {
    printf("%14u", cs);
  }
  printf("\n");
  for (LockKind kind : {LockKind::kMcsH2, LockKind::kSpin35us}) {
    hmetrics::BenchSeries& out = report.AddSeries(
        "fault_response_us", {{"lock", hsim::LockKindName(kind)}, {"test", "shared"}});
    printf("%-18s", hsim::LockKindName(kind));
    for (unsigned cs : kClusterSizes) {
      FaultTestParams params;
      params.lock_kind = kind;
      params.cluster_size = cs;
      params.active_procs = 16;
      params.pages = 4;
      params.iterations = opts.smoke ? 2 : 4;
      params.warmup = 1;
      const FaultTestResult r = RunSharedFaultTest(params);
      char cell[32];
      snprintf(cell, sizeof(cell), "%.0f(wd=%llu)", r.latency.mean_us(),
               static_cast<unsigned long long>(r.counters.rpc_would_deadlock));
      printf("%14s", cell);
      out.AddPoint({{"cluster_size", static_cast<double>(cs)},
                    {"mean_us", r.latency.mean_us()},
                    {"would_deadlock", static_cast<double>(r.counters.rpc_would_deadlock)}});
    }
    printf("\n");
  }

  // Footnote 6 reference points.
  const hkernel::CalibrationResult cal = hkernel::RunCalibration(LockKind::kMcsH2);
  printf("\nSection 4.2 footnote 6 reference points:\n");
  printf("  null RPC round trip:              %.1f us (paper: 27 us)\n", cal.null_rpc_us);
  printf("  cluster-wide lookup + replicate:  %.1f us (paper: 88 us)\n", cal.replicate_us);
  report.AddSeries("calibration")
      .AddPoint({{"null_rpc_us", cal.null_rpc_us}, {"replicate_us", cal.replicate_us}});
  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
