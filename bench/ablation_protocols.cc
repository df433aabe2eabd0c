// Ablation: optimistic vs pessimistic deadlock management (Section 2.3 /
// 2.5, simulator).
//
// The optimistic protocol leaves an exclusively-reserved local shell behind
// while fetching a descriptor, so (a) cluster peers combine on one fetch and
// (b) no state re-establishment is needed unless a retry actually happens.
// The paper's initial pessimistic protocol holds nothing across the RPC: it
// must re-search afterwards, may find its work already done (a redundant
// fetch), and bursty same-page demand fans out into redundant RPCs.

#include <cstdio>

#include "src/hkernel/workloads.h"
#include "src/hmetrics/bench_main.h"

namespace {

using hkernel::DeadlockProtocol;
using hkernel::FaultTestParams;
using hkernel::FaultTestResult;

void Row(const char* name, DeadlockProtocol protocol, unsigned cluster_size,
         const hmetrics::BenchOptions& opts, hmetrics::BenchReport* report) {
  FaultTestParams params;
  params.protocol = protocol;
  params.cluster_size = cluster_size;
  params.active_procs = 16;
  params.pages = 4;
  params.iterations = opts.smoke ? 2 : 4;
  params.warmup = 1;
  const FaultTestResult r = RunSharedFaultTest(params);
  printf("%-12s %8u %12.0f %8llu %8llu %10llu %10llu\n", name, cluster_size,
         r.latency.mean_us(), static_cast<unsigned long long>(r.counters.rpcs),
         static_cast<unsigned long long>(r.counters.replications),
         static_cast<unsigned long long>(r.counters.redundant_rpcs),
         static_cast<unsigned long long>(r.counters.rpc_would_deadlock));
  report->AddSeries("shared_fault", {{"protocol", name}})
      .AddPoint({{"cluster_size", static_cast<double>(cluster_size)},
                 {"fault_us", r.latency.mean_us()},
                 {"rpcs", static_cast<double>(r.counters.rpcs)},
                 {"replications", static_cast<double>(r.counters.replications)},
                 {"redundant_rpcs", static_cast<double>(r.counters.redundant_rpcs)},
                 {"would_deadlock", static_cast<double>(r.counters.rpc_would_deadlock)}});
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("ablation_protocols");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  printf("Ablation: deadlock-management protocol, shared-fault test, p=16\n");
  printf("(the workload where the paper says retries happen regardless of strategy)\n\n");
  printf("%-12s %8s %12s %8s %8s %10s %10s\n", "protocol", "csize", "fault(us)", "rpcs",
         "replic.", "redundant", "wd-retry");
  for (unsigned cs : {2u, 4u, 8u}) {
    Row("optimistic", DeadlockProtocol::kOptimistic, cs, opts, &report);
    Row("pessimistic", DeadlockProtocol::kPessimistic, cs, opts, &report);
  }
  printf("\nReading: the pessimistic protocol issues redundant fetches whenever a\n"
         "burst of same-page faults hits a cluster (no reserved shell to combine\n"
         "on) and pays the re-establishment search after every RPC.  The paper\n"
         "kept the optimistic protocol for replication and the pessimistic one\n"
         "for broadcasts, where holding the local copy locked would be worse.\n");
  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
