// The synthetic stress tests of Section 4.2 and the calibration runs.
//
// Independent faults (Figure 6a / 7a / 7c): p processes repeatedly fault on a
// per-process private region of local memory.  The only lock contention is
// from unnecessary locking conflicts in the kernel.
//
// Shared faults (Figure 6b / 7b / 7d): p processes repeatedly (1) write to
// the same small number of shared pages, (2) barrier, (3) unmap the pages.
// Lock contention is implicit in the application demands.

#ifndef HKERNEL_WORKLOADS_H_
#define HKERNEL_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "src/hkernel/kernel.h"
#include "src/hmetrics/registry.h"
#include "src/hmetrics/trace.h"
#include "src/hsim/fault.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/stats.h"
#include "src/hsim/types.h"

namespace hkernel {

// A sense-reversing barrier over simulated processors.  Waiting processors
// keep their interrupt gate open and service RPCs (they must: the unmap
// broadcast arrives while everyone else sits in the barrier).
class SimBarrier {
 public:
  SimBarrier(KernelSystem* system, std::uint32_t parties)
      : system_(system), parties_(parties) {}

  hsim::Task<void> Wait(hsim::Processor& p);

 private:
  KernelSystem* system_;
  std::uint32_t parties_;
  std::uint32_t count_ = 0;
  std::uint64_t generation_ = 0;
};

struct FaultTestResult {
  hsim::LatencyRecorder latency;        // per-fault end-to-end latency
  hsim::LatencyRecorder lock_overhead;  // per-fault cycles inside locking primitives
  KernelSystem::Counters counters;
  // Independent test only: faults completed inside the measurement window and
  // the Little's-law response time W = p * window / completions, which unlike
  // the sample mean cannot be biased by an unfair lock starving some
  // processors out of the sample.
  std::uint64_t window_ops = 0;
  std::uint32_t active_procs = 0;
  hsim::Tick window = 0;
  double little_response_us() const {
    if (window_ops == 0) {
      return 0.0;
    }
    return static_cast<double>(active_procs) * hsim::TicksToUs(window) /
           static_cast<double>(window_ops);
  }
  hsim::Tick bus_wait = 0;   // aggregate queueing at station buses
  hsim::Tick mem_wait = 0;   // aggregate queueing at memory modules
  hsim::Tick ring_wait = 0;  // aggregate queueing at the ring
  // What the fault plan actually injected (all zero on a perfect transport),
  // plus any tail packets still undelivered at engine idle -- necessarily
  // duplicates/retransmits of completed calls, since no driver exits with a
  // call outstanding.
  hsim::FaultPlan::Counters transport;
  std::uint64_t backlog = 0;
  hsim::Tick duration = 0;   // measured-phase simulated time
  std::uint64_t events = 0;  // engine events processed by the whole run
  std::vector<double> module_utilization;  // per-module busy fraction
  std::vector<hsim::Tick> module_wait;     // per-module aggregate queueing
};

struct FaultTestParams {
  hsim::LockKind lock_kind = hsim::LockKind::kMcsH2;
  DeadlockProtocol protocol = DeadlockProtocol::kOptimistic;
  std::uint32_t cluster_size = 16;
  std::uint32_t active_procs = 16;
  // Independent test: private pages per process.  Shared test: shared pages.
  std::uint32_t pages = 8;
  // Shared test: measured rounds (each round faults every page once per
  // process, then unmaps) plus unrecorded warm-up rounds.
  std::uint32_t iterations = 32;
  std::uint32_t warmup = 4;
  // Independent test: processors fault continuously until the deadline;
  // faults that start after the warm-up and finish before the deadline are
  // recorded.  A deadline (not an iteration quota) is essential: an unfair
  // lock lets lucky processors finish a quota early, thinning the contention
  // they caused and biasing the recorded mean.
  hsim::Tick warmup_time = hsim::UsToTicks(2000);
  hsim::Tick measure_time = hsim::UsToTicks(25000);
  // Optional observability hooks: `trace` receives lock/memory/RPC spans from
  // the run; `metrics` receives the kernel counters ("kernel.*") and the RPC
  // batch-depth histogram.
  hmetrics::TraceSession* trace = nullptr;
  hmetrics::Registry* metrics = nullptr;
  // Adversarial transport: installed on the rig's machine when any() is true.
  // Deterministic under faults.seed -- same seed, same params, same result.
  hsim::FaultConfig faults;
};

// Runs the independent-fault stress test on a fresh 16-processor machine.
FaultTestResult RunIndependentFaultTest(const FaultTestParams& params);

// Runs the shared-fault stress test (fault / barrier / unmap rounds).
FaultTestResult RunSharedFaultTest(const FaultTestParams& params);

// Mixed workload (the paper's concluding scenario): half the processors run
// independent sequential programs, half run one SPMD program faulting on
// shared pages with periodic global unmaps.  The conclusion's claim: "with a
// mix of real applications having both independent and non-independent
// demands, a cluster size somewhere in the range of 4 to 16 processors would
// be optimal".  `pages` sets the private pages per independent process; the
// SPMD side uses 4 shared pages.  Runs until the shared side finishes
// `iterations` rounds; the recorded metric covers all faults of both kinds.
FaultTestResult RunMixedFaultTest(const FaultTestParams& params);

// Single-processor reference numbers (Section 1 and Section 4.2 footnote 6):
// the uncontended soft-fault latency with its lock overhead, the null RPC
// round trip, and the cost of a cluster-wide lookup + descriptor replication.
struct CalibrationResult {
  double fault_us = 0;        // paper: ~160 us
  double fault_lock_us = 0;   // paper: ~40 us
  double null_rpc_us = 0;     // paper: ~27 us
  double replicate_us = 0;    // paper: ~88 us (lookup + replicate)
};

CalibrationResult RunCalibration(hsim::LockKind lock_kind);

}  // namespace hkernel

#endif  // HKERNEL_WORKLOADS_H_
