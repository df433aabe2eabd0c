// The benchmark's workloads.  Each runs for about opts.seconds of host time,
// checks its outputs, and fills a Result with the end-to-end metrics
// (opts.trace false) or the per-layer metrics (opts.trace true, spans and
// counters also land in `log`).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/src/common.h"

namespace perfbench {

// Native hsvc: svc_read_mostly.
bool IsSvcWorkload(const std::string& name);
// Threads the svc workloads start: pumps plus client threads.
unsigned SvcThreads();
Result RunSvc(const Options& opts, TraceLog* log);

// Threads the sim workloads start: each runs its own copy of the scenario.
unsigned SimThreads();

// Simulated HECTOR kernel: sim_kernel_faults.
Result RunSimKernel(const Options& opts, TraceLog* log);

// Simulated multi-machine mesh: sim_mesh.
Result RunSimMesh(const Options& opts, TraceLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
