// The lock stress test of Section 4.1.2 (Figure 5): p processors continuously
// acquire and release the same lock, holding it for a configurable time.
//
// Processors run until a simulated deadline and the harness records only
// acquisitions that start after the warm-up and complete before the deadline.
// Running to a deadline (rather than for a fixed number of iterations) is
// essential: unfair locks let lucky processors finish a fixed quota early,
// which thins out the contention they caused and biases the mean downwards.

#ifndef HSIM_LOCKS_STRESS_H_
#define HSIM_LOCKS_STRESS_H_

#include <cstdint>

#include "src/hmetrics/trace.h"
#include "src/hprof/lock_site.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/machine.h"
#include "src/hsim/stats.h"
#include "src/hsim/types.h"

namespace hsim {

struct LockStressParams {
  LockKind kind = LockKind::kMcsH2;
  std::uint32_t processors = 16;
  Tick hold = 0;   // critical-section length
  Tick think = 48; // loop/measurement overhead between release and re-acquire
  ModuleId lock_home = 0;              // module holding the lock word
  Tick warmup = UsToTicks(1000);       // unrecorded start-up window
  Tick duration = UsToTicks(20000);    // recorded window after warm-up
  MachineConfig machine;               // e.g. cache_coherent for Section 5.2
  // Optional observability hooks.  `trace` receives lock-acquire/release (and,
  // category permitting, memory-access) spans; `site` receives per-acquisition
  // wait/hold/handoff samples for the stressed lock.
  hmetrics::TraceSession* trace = nullptr;
  hprof::LockSiteStats* site = nullptr;
};

struct LockStressResult {
  LatencyRecorder acquire_latency;  // response time of recorded acquisitions
  std::uint64_t acquisitions = 0;   // total (including unrecorded)
  std::uint64_t window_ops = 0;     // acquisitions completed inside the window
  std::uint32_t processors = 0;
  Tick window = 0;

  // System response time by Little's law: with p processors continuously
  // requesting, the number in system is p, so W = p / throughput.  Unlike the
  // sample mean this is immune to unfair locks starving some processors out
  // of the sample.
  double little_response_us() const {
    if (window_ops == 0) {
      return 0.0;
    }
    return static_cast<double>(processors) * TicksToUs(window) /
           static_cast<double>(window_ops);
  }
  std::uint64_t spin_retries = 0;   // failed test-and-set attempts (spin locks)
  std::uint64_t mcs_repairs = 0;    // queue repairs (Distributed Locks)
  double lock_module_utilization = 0.0;  // busy fraction of the lock's module
  Tick bus_wait = 0;                // aggregate queueing at station buses
  Tick mem_wait = 0;                // aggregate queueing at memory modules
  Tick end_tick = 0;                // engine time when the run drained
  std::uint64_t events = 0;         // engine events processed by the run
};

LockStressResult RunLockStress(const LockStressParams& params);

// Reader-writer stress: p processors run a deterministic op mix against one
// lock — every `write_every`-th op per processor is exclusive, the rest are
// shared.  When the kind is kDrw the shared ops go through the distributed
// reader path (per-station counters); for every other kind shared ops fall
// back to plain Acquire/Release, which makes the same mix a coarse-lock
// baseline the RW numbers can be raced against.
struct RwStressParams {
  LockKind kind = LockKind::kDrw;
  std::uint32_t processors = 16;
  std::uint32_t write_every = 20;  // 1-in-N ops are exclusive; 0 = read-only
  Tick hold_read = 0;              // shared-hold length
  Tick hold_write = 0;             // exclusive-hold length
  Tick think = 48;                 // loop overhead between ops
  ModuleId lock_home = 0;
  Tick warmup = UsToTicks(1000);
  Tick duration = UsToTicks(20000);
  MachineConfig machine;
};

struct RwStressResult {
  LatencyRecorder read_latency;   // shared-acquire response, in-window
  LatencyRecorder write_latency;  // exclusive-acquire response, in-window
  std::uint64_t read_ops = 0;     // shared ops completed inside the window
  std::uint64_t write_ops = 0;    // exclusive ops completed inside the window
  std::uint32_t processors = 0;
  Tick window = 0;

  // Aggregate system response time by Little's law over the whole mix.
  double little_response_us() const {
    const std::uint64_t ops = read_ops + write_ops;
    if (ops == 0) {
      return 0.0;
    }
    return static_cast<double>(processors) * TicksToUs(window) /
           static_cast<double>(ops);
  }
  // Window throughput in completed ops per simulated microsecond.
  double ops_per_us() const {
    if (window == 0) {
      return 0.0;
    }
    return static_cast<double>(read_ops + write_ops) / TicksToUs(window);
  }
};

RwStressResult RunRwLockStress(const RwStressParams& params);

// The profiled contention scenario behind `fig5_lock_contention --profile`:
// every processor alternates between one machine-wide shared lock (the
// paper's worst case: a global kernel lock with a ~2 us critical section) and
// its own station's lock (the clustered alternative HURRICANE argues for).
// With profiling sites attached, the shared lock must dominate the hprof
// ranking and show cross-cluster handoffs; the per-station locks stay cheap
// and cluster-local.
struct ProfiledContentionParams {
  LockKind kind = LockKind::kMcsH2;
  std::uint32_t processors = 16;
  Tick hold_shared = UsToTicks(2);  // critical section under the shared lock
  Tick hold_local = UsToTicks(1);   // critical section under the station lock
  Tick think = UsToTicks(1);        // gap between sections
  Tick warmup = UsToTicks(200);
  Tick duration = UsToTicks(5000);
  MachineConfig machine;
  hmetrics::TraceSession* trace = nullptr;
};

struct ProfiledContentionResult {
  std::uint64_t shared_acquisitions = 0;
  std::uint64_t local_acquisitions = 0;
};

// Runs the scenario with one site per lock added to `sites` (which must
// outlive the call): "kernel/shared" plus one "cluster<s>/local" per station.
// Pass sites == nullptr for an unprofiled (bit-identical baseline) run.
ProfiledContentionResult RunProfiledContention(const ProfiledContentionParams& params,
                                               hprof::SiteTable* sites);

// Uncontended lock/unlock pair latency for the Section 4.1.1 table.  The lock
// word is placed on a remote station (kernel locks are rarely local), and the
// pair is averaged over `rounds` iterations by a single processor, with
// enough loop overhead between pairs that one pair's trailing store traffic
// cannot hide the next pair's memory accesses.
double UncontendedPairLatencyUs(LockKind kind, int rounds = 64);

}  // namespace hsim

#endif  // HSIM_LOCKS_STRESS_H_
