// Regenerates Figures 7a and 7b: page-fault response time for the
// independent- and shared-fault stress tests on a single 16-processor
// cluster, as the number of faulting processes p varies, comparing
// Distributed Locks (H2-MCS) against exponential-backoff spin locks.
//
// Paper claims checked:
//   7a: little difference for p in 1..4; beyond 4 the spin locks degrade
//       substantially; at p=16 spin costs over twice the Distributed Locks.
//       The increase is due almost entirely to memory/interconnect
//       contention (second-order effects).
//   7b: with faults to *shared* pages, contention moves to the reserve bits
//       and the gap between the lock kinds is much smaller.
//
// Also prints the Section 1 reference point (uncontended fault ~160 us, of
// which ~40 us locking).
//
// With --faults the binary instead runs the fault campaign: the shared and
// mixed workloads on clusters of 4 (so every shared fault crosses clusters)
// under injected drop+duplication rates of 0%, 2%, and 10% on both RPC legs.
// Each cell is run twice with the same seed and must (a) complete, (b) apply
// every issued RPC exactly once (applied == issued), and (c) replay
// bit-identically.  Any violation makes the exit status nonzero.

#include <cstdio>

#include "src/hkernel/workloads.h"
#include "src/hmetrics/bench_main.h"
#include "src/hsim/fault.h"

namespace {

using hkernel::FaultTestParams;
using hkernel::FaultTestResult;
using hsim::LockKind;

const unsigned kProcs[] = {1, 2, 4, 8, 12, 16};

bool g_smoke = false;

FaultTestParams IndependentParams(LockKind kind, unsigned p) {
  FaultTestParams params;
  params.lock_kind = kind;
  params.cluster_size = 16;
  params.active_procs = p;
  params.pages = 8;
  params.warmup_time = hsim::UsToTicks(g_smoke ? 1000 : 2500);
  params.measure_time = hsim::UsToTicks(g_smoke ? 3000 : 12000);
  return params;
}

FaultTestParams CampaignParams(double rate, std::uint64_t seed) {
  FaultTestParams params;
  params.cluster_size = 4;
  params.active_procs = 16;
  params.pages = 4;
  params.iterations = g_smoke ? 2 : 6;
  params.warmup = 1;
  params.faults.drop_request = rate;
  params.faults.drop_reply = rate;
  params.faults.dup_request = rate;
  params.faults.dup_reply = rate;
  params.faults.seed = seed;
  return params;
}

bool SameRun(const FaultTestResult& a, const FaultTestResult& b) {
  return a.duration == b.duration && a.latency.count() == b.latency.count() &&
         a.latency.mean_us() == b.latency.mean_us() && a.counters.rpcs == b.counters.rpcs &&
         a.counters.rpc_retransmits == b.counters.rpc_retransmits &&
         a.counters.rpc_dup_requests == b.counters.rpc_dup_requests &&
         a.counters.rpc_dup_replies == b.counters.rpc_dup_replies &&
         a.transport.requests_seen == b.transport.requests_seen &&
         a.transport.dropped() == b.transport.dropped() &&
         a.transport.duplicated() == b.transport.duplicated();
}

// Runs the fault campaign; returns the number of failed cells.
int RunFaultCampaign(const hmetrics::BenchOptions& opts) {
  const double kRates[] = {0.0, 0.02, 0.10};
  struct Workload {
    const char* name;
    FaultTestResult (*run)(const FaultTestParams&);
  };
  const Workload kWorkloads[] = {
      {"shared", hkernel::RunSharedFaultTest},
      {"mixed", hkernel::RunMixedFaultTest},
  };
  hmetrics::BenchReport report("fig7_fault_campaign");
  report.SetParam("smoke", g_smoke ? 1 : 0);
  int failures = 0;

  printf("Fault campaign: drop+dup injected on both RPC legs, clusters of 4\n");
  printf("(exact-once check: every issued RPC applied exactly once)\n\n");
  printf("%-10s %6s %8s %8s %8s %8s %8s %8s  %s\n", "workload", "rate", "rpcs", "applied",
         "retrans", "dropped", "dup_inj", "dup_det", "verdict");
  for (const Workload& w : kWorkloads) {
    hmetrics::BenchSeries& out = report.AddSeries("fault_campaign", {{"workload", w.name}});
    for (double rate : kRates) {
      const FaultTestParams params = CampaignParams(rate, /*seed=*/0x5eedULL);
      const FaultTestResult r = w.run(params);
      const FaultTestResult replay = w.run(params);
      const bool exact_once = r.counters.rpc_ops_applied == r.counters.rpcs;
      const bool deterministic = SameRun(r, replay);
      // Dedup hits = transport duplicates + retransmit echoes; everything the
      // plan duplicated must be accounted for either as a detected duplicate
      // or as an undrained tail packet.
      const std::uint64_t dup_detected = r.counters.rpc_dup_requests + r.counters.rpc_dup_replies;
      const bool dups_reconcile =
          dup_detected + r.backlog >= r.transport.duplicated() &&
          dup_detected <= r.transport.duplicated() + 2 * r.counters.rpc_retransmits;
      const bool ok = exact_once && deterministic && dups_reconcile;
      failures += ok ? 0 : 1;
      printf("%-10s %5.0f%% %8llu %8llu %8llu %8llu %8llu %8llu  %s%s%s\n", w.name, rate * 100,
             static_cast<unsigned long long>(r.counters.rpcs),
             static_cast<unsigned long long>(r.counters.rpc_ops_applied),
             static_cast<unsigned long long>(r.counters.rpc_retransmits),
             static_cast<unsigned long long>(r.transport.dropped()),
             static_cast<unsigned long long>(r.transport.duplicated()),
             static_cast<unsigned long long>(dup_detected), ok ? "ok" : "FAIL",
             deterministic ? "" : " (nondeterministic)",
             exact_once ? "" : " (applied != issued)");
      out.AddPoint({{"rate", rate},
                    {"rpcs", static_cast<double>(r.counters.rpcs)},
                    {"applied", static_cast<double>(r.counters.rpc_ops_applied)},
                    {"retransmits", static_cast<double>(r.counters.rpc_retransmits)},
                    {"dropped", static_cast<double>(r.transport.dropped())},
                    {"dup_injected", static_cast<double>(r.transport.duplicated())},
                    {"dup_detected", static_cast<double>(dup_detected)},
                    {"backlog", static_cast<double>(r.backlog)},
                    {"mean_us", r.latency.mean_us()},
                    {"exact_once", exact_once ? 1.0 : 0.0},
                    {"deterministic", deterministic ? 1.0 : 0.0}});
    }
  }
  printf("\n%s\n", failures == 0 ? "all cells passed exact-once + determinism"
                                 : "FAULT CAMPAIGN FAILED");
  if (!hmetrics::WriteReport(opts, report)) {
    return 1;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  g_smoke = opts.smoke;
  if (opts.faults) {
    return RunFaultCampaign(opts);
  }
  hmetrics::BenchReport report("fig7_fault_tests");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  printf("Figure 7a: independent-fault test, one cluster of 16 processors\n");
  printf("(page-fault response time in us, Little's-law W over the run)\n\n");
  printf("%-18s", "lock \\ p");
  for (unsigned p : kProcs) {
    printf("%9u", p);
  }
  printf("\n");
  double dl16 = 0;
  double spin16 = 0;
  for (LockKind kind : {LockKind::kMcsH2, LockKind::kSpin35us}) {
    hmetrics::BenchSeries& out = report.AddSeries(
        "fault_response_us", {{"lock", hsim::LockKindName(kind)}, {"test", "independent"}});
    printf("%-18s", hsim::LockKindName(kind));
    for (unsigned p : kProcs) {
      const FaultTestResult r = RunIndependentFaultTest(IndependentParams(kind, p));
      const double w = r.little_response_us();
      printf("%9.0f", w);
      out.AddPoint({{"p", static_cast<double>(p)},
                    {"w_us", w},
                    {"mean_us", r.latency.mean_us()},
                    {"lock_us", r.lock_overhead.mean_us()}});
      if (p == 16) {
        (kind == LockKind::kMcsH2 ? dl16 : spin16) = w;
      }
    }
    printf("\n");
  }
  printf("\nspin/DL ratio at p=16: %.2fx (paper: over 2x)\n\n", spin16 / dl16);

  {
    const FaultTestResult r = RunIndependentFaultTest(IndependentParams(LockKind::kMcsH2, 1));
    printf("Section 1 reference: uncontended soft fault %.0f us, locking %.0f us "
           "(paper: 160 us / 40 us)\n\n",
           r.latency.mean_us(), r.lock_overhead.mean_us());
    report.AddSeries("uncontended_reference")
        .AddPoint({{"fault_us", r.latency.mean_us()},
                   {"lock_us", r.lock_overhead.mean_us()}});
  }

  printf("Figure 7b: shared-fault test, one cluster of 16 processors\n");
  printf("(mean page-fault response time in us over fault/barrier/unmap rounds)\n\n");
  printf("%-18s", "lock \\ p");
  for (unsigned p : kProcs) {
    printf("%9u", p);
  }
  printf("\n");
  double dl16s = 0;
  double spin16s = 0;
  for (LockKind kind : {LockKind::kMcsH2, LockKind::kSpin35us}) {
    hmetrics::BenchSeries& out = report.AddSeries(
        "fault_response_us", {{"lock", hsim::LockKindName(kind)}, {"test", "shared"}});
    printf("%-18s", hsim::LockKindName(kind));
    for (unsigned p : kProcs) {
      FaultTestParams params;
      params.lock_kind = kind;
      params.cluster_size = 16;
      params.active_procs = p;
      params.pages = 4;
      params.iterations = opts.smoke ? 2 : 4;
      params.warmup = 1;
      const FaultTestResult r = RunSharedFaultTest(params);
      printf("%9.0f", r.latency.mean_us());
      out.AddPoint({{"p", static_cast<double>(p)},
                    {"mean_us", r.latency.mean_us()},
                    {"lock_us", r.lock_overhead.mean_us()}});
      if (p == 16) {
        (kind == LockKind::kMcsH2 ? dl16s : spin16s) = r.latency.mean_us();
      }
    }
    printf("\n");
  }
  printf("\nspin/DL ratio at p=16: %.2fx -- much smaller than Figure 7a's %.2fx:\n"
         "contention has moved from the coarse locks to the reserve bits, with\n"
         "bursts on the coarse lock whenever a reserve bit clears.\n",
         spin16s / dl16s, spin16 / dl16);
  report.AddSeries("ratios")
      .AddPoint({{"independent_spin_over_dl_p16", spin16 / dl16},
                 {"shared_spin_over_dl_p16", spin16s / dl16s}});
  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
