// Open-loop load runner for hsvc.
//
// One generator thread per cluster submits its planned op stream (see
// workload.h) at the ops' *scheduled* times, regardless of how the service
// is keeping up -- the open-loop discipline.  A closed-loop client (wait for
// each response before sending the next) measures a different, much kinder
// system: its arrival rate collapses exactly when the service slows down, so
// queueing delay never shows up in its numbers.  Here, every terminal
// outcome -- success, not-found, deadline expiry, final rejection after
// retries, or abandonment at window close -- is recorded against the op's
// scheduled arrival time (coordinated-omission-safe: see
// hmetrics::Histogram::RecordAsOf).
//
// Rejected submissions follow the paper's Section 2.3 client contract:
// jittered exponential backoff seeded from the service's own retry-after
// hint, up to max_retries, from a jitter stream separate from the plan
// stream so the plan replays identically across runs.
//
// Requests come from a shared halloc slab allocator clustered per generator
// (type-stable, footnote-2 discipline): each generator registers its thread
// on its own cluster, so the alloc/free fast path stays in that cluster's
// magazines, while a generator that outruns its own range can borrow from
// the shared depot instead of stalling.  Completions return through a
// lock-free stack.  A planned op that finds the whole pool empty is counted
// (pool_exhausted) rather than silently skipped -- at that point the
// generator is no longer offering the configured load and the run's numbers
// say so.

#ifndef HLOAD_OPEN_LOOP_H_
#define HLOAD_OPEN_LOOP_H_

#include <cstdint>

#include "src/halloc/slab_allocator.h"
#include "src/hflight/flight.h"
#include "src/hload/workload.h"
#include "src/hmetrics/histogram.h"
#include "src/hsvc/service.h"

namespace hload {

struct RunnerConfig {
  WorkloadConfig workload;
  double rate_per_cluster = 2000;    // offered ops/s per generator (Poisson)
  std::size_t ops_per_cluster = 2000;  // plan length; the window is its span
  std::size_t pool_size = 256;       // max outstanding requests per generator
  std::uint32_t max_retries = 4;     // re-submissions after rejection
  std::uint64_t deadline_ns = 0;     // per-op deadline from *scheduled* time
  // Optional flight recorder: when set, every issued op opens a record at
  // its *scheduled* instant (so the ledger's total equals the measured,
  // coordinated-omission-safe latency) and closes it with its terminal fate.
  // Must outlive the run.
  hflight::FlightRecorder* flight = nullptr;
};

struct RunnerResult {
  std::uint64_t planned = 0;
  std::uint64_t issued = 0;            // ops whose first submit was attempted
  std::uint64_t ok = 0;
  std::uint64_t notfound = 0;
  std::uint64_t expired = 0;           // admitted but past deadline at service
  std::uint64_t rejected_submits = 0;  // every rejection observed
  std::uint64_t rejected_final = 0;    // ops that gave up after max_retries
  std::uint64_t abandoned = 0;         // retries still pending at window close
  std::uint64_t pool_exhausted = 0;    // planned ops skipped: no free node
  std::uint64_t retries = 0;           // re-submission attempts made
  std::uint64_t window_ns = 0;         // submission window (max over generators)
  hmetrics::Histogram latency;         // all terminal outcomes, ns from scheduled

  double offered_rps() const {
    return window_ns == 0 ? 0.0
                          : static_cast<double>(planned) * 1e9 /
                                static_cast<double>(window_ns);
  }
  double achieved_rps() const {
    return window_ns == 0 ? 0.0
                          : static_cast<double>(ok + notfound) * 1e9 /
                                static_cast<double>(window_ns);
  }
  // Of everything planned, how much ended in each fate.
  double completed_fraction() const {
    return planned == 0 ? 0.0
                        : static_cast<double>(ok + notfound) /
                              static_cast<double>(planned);
  }

  void Merge(const RunnerResult& other);
};

class LoadRunner {
 public:
  LoadRunner(hsvc::Service* service, const RunnerConfig& config)
      : service_(service), config_(config) {}

  // Runs one generator thread per cluster to plan exhaustion, harvests every
  // outstanding completion, and returns the merged result.  Blocking.
  RunnerResult Run();

 private:
  RunnerResult RunGenerator(std::uint32_t cluster,
                            halloc::SlabAllocator<hsvc::Request>* pool);

  hsvc::Service* service_;
  RunnerConfig config_;
};

}  // namespace hload

#endif  // HLOAD_OPEN_LOOP_H_
