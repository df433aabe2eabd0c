// Open-loop load driver for one mesh member.
//
// One client per machine replays an hload-planned op stream (zipfian keys,
// Poisson arrivals, read/write mix) against the mesh, with the mesh's
// machines standing where hload's clusters normally stand: the plan's
// num_clusters is the machine count, so key construction (rank * N + c) and
// the hot-rank head line up with the mesh's replication policy.
//
// Open-loop discipline: each op fires at its *scheduled* tick regardless of
// how earlier ops are faring (a bounded in-flight window is the only brake,
// sized so it never binds below saturation), and latency is recorded against
// the scheduled instant -- a slow mesh cannot hide behind its own queueing
// (coordinated omission).  Every acked write is logged with the version the
// mesh assigned, which is what the chaos campaign audits against the mesh's
// apply ledger (exactly-once) and the surviving stores (zero lost ops).

#ifndef HMESH_CLIENT_H_
#define HMESH_CLIENT_H_

#include <cstdint>
#include <vector>

#include "src/hload/workload.h"
#include "src/hmetrics/histogram.h"
#include "src/hmesh/mesh.h"

namespace hmesh {

struct ClientConfig {
  hload::WorkloadConfig workload;  // num_clusters must equal mesh machines
  std::uint64_t ops = 1000;
  double rate_per_s = 250'000;     // offered rate per machine
  std::uint32_t window = 8;        // max ops in flight per client
};

struct AckedWrite {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::uint64_t version = 0;
  std::uint64_t op_id = 0;
};

struct ClientStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t forwarded_reads = 0;
  std::uint64_t failed = 0;  // ops abandoned because this machine died
  hmetrics::Histogram latency;
  std::vector<AckedWrite> acked_writes;
  bool done = false;
};

// The op id a client on machine m assigns to its i-th planned op; unique
// mesh-wide (op id 0 is reserved for the preload).
inline std::uint64_t ClientOpId(std::uint32_t m, std::uint64_t index) {
  return (std::uint64_t{m} + 1) << 40 | index;
}

// Drives machine m's planned stream to completion (all ops acked or failed),
// then sets stats->done.  Runs on processor 1 of machine m; spawn on the
// mesh's engine.  `stats` must outlive the task.
hsim::Task<void> RunClient(Mesh* mesh, std::uint32_t m, const ClientConfig& config,
                           ClientStats* stats);

}  // namespace hmesh

#endif  // HMESH_CLIENT_H_
