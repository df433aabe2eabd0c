// The clustered HURRICANE kernel model.
//
// A KernelSystem instantiates hierarchical clustering (Section 2.2) over a
// simulated HECTOR machine: processors are grouped into clusters of
// config.cluster_size, and each cluster owns a complete set of memory-manager
// structures -- a page-descriptor hash table, the coarse-grained lock that
// protects it, a region ("address space") lock, and a descriptor pool.
//
// Pages are identified by 64-bit ids that encode their home processor (and
// therefore home cluster).  A fault on a page whose home is a remote cluster
// creates a local replica shell under an exclusive reserve bit, releases all
// local locks, and fetches the descriptor payload by RPC -- the optimistic
// deadlock-avoidance protocol of Section 2.3: the remote handler never spins
// on a reserve bit; it fails with kWouldDeadlock and the initiator backs off
// and retries.
//
// Global updates (unmapping a shared page) use the pessimistic protocol: all
// local locks are dropped before the invalidations are broadcast.

#ifndef HKERNEL_KERNEL_H_
#define HKERNEL_KERNEL_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/halloc/slab_allocator.h"
#include "src/hkernel/config.h"
#include "src/hkernel/page_table.h"
#include "src/hkernel/rpc.h"
#include "src/hmetrics/registry.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"

namespace hflight {
class FlightRecorder;
}  // namespace hflight

namespace hkernel {

// One cluster's instantiation of the kernel data structures.  The page table
// draws descriptors from the system-wide DescriptorArena (each cluster's refs
// are partitioned within it, so the fast path stays cluster-local).
class ClusterKernel {
 public:
  ClusterKernel(hsim::Machine* machine, const KernelConfig& config, std::uint32_t id,
                std::vector<hsim::ProcId> procs, DescriptorArena* arena);

  std::uint32_t id() const { return id_; }
  const std::vector<hsim::ProcId>& procs() const { return procs_; }

  hsim::SimLock& lock() { return *lock_; }  // protects the page hash table
  PageHashTable& table() { return *table_; }

 private:
  std::uint32_t id_;
  std::vector<hsim::ProcId> procs_;
  std::unique_ptr<hsim::SimLock> lock_;
  std::unique_ptr<PageHashTable> table_;
};

// An address space (a program).  Region descriptors are read-mostly data and
// are replicated per cluster (Section 2.2): each cluster that runs threads of
// the program gets its own region-list replica and the lock protecting it.
// A workload of many sequential programs therefore induces no address-space
// lock contention at all; a single parallel program contends only within a
// cluster.
class Program {
 public:
  Program(hsim::Machine* machine, const KernelConfig& config, std::uint32_t id,
          std::uint32_t num_clusters, std::uint32_t nprocs);

  std::uint32_t id() const { return id_; }
  hsim::SimLock& region_lock(std::uint32_t cluster) { return *replicas_[cluster].lock; }
  hsim::SimWord& region_word(std::uint32_t cluster, int i) {
    return *replicas_[cluster].words[i];
  }

 private:
  struct Replica {
    std::unique_ptr<hsim::SimLock> lock;
    hsim::SimWord* words[2];
  };
  std::uint32_t id_;
  std::vector<Replica> replicas_;
};

// Per-fault outcome, for the experiment harnesses.
struct FaultOutcome {
  hsim::Tick total = 0;          // end-to-end fault latency
  hsim::Tick lock_cycles = 0;    // time spent in locking primitives
  bool replicated = false;       // the descriptor was fetched from a remote cluster
  int reserve_waits = 0;         // times we had to spin on a reserve bit
  int rpc_retries = 0;           // kWouldDeadlock retries
};

class KernelSystem {
 public:
  KernelSystem(hsim::Machine* machine, const KernelConfig& config);

  hsim::Machine& machine() { return *machine_; }
  const KernelConfig& config() const { return config_; }

  // --- topology ---------------------------------------------------------------
  std::uint32_t num_clusters() const { return static_cast<std::uint32_t>(clusters_.size()); }
  ClusterKernel& cluster(std::uint32_t id) { return *clusters_[id]; }
  DescriptorArena& desc_arena() { return *arena_; }

  // Pool of in-transit RPC packet envelopes (the transport's wire buffers),
  // clustered like the kernel: an envelope is allocated at the sender's
  // cluster and freed at the receiver's, so cross-cluster RPC traffic is
  // exactly the alloc/free drift the slab depot absorbs.  Host-side objects
  // (the transport itself is host bookkeeping); the engine is single-threaded
  // so explicit ctx ids stand in for threads.
  halloc::SlabAllocator<RpcPacket>& packet_pool() { return *packet_pool_; }
  std::uint32_t cluster_of_proc(hsim::ProcId p) const { return p / config_.cluster_size; }
  ClusterKernel& cluster_of(hsim::Processor& p) { return *clusters_[cluster_of_proc(p.id())]; }
  CpuKernel& cpu(hsim::ProcId p) { return *cpus_[p]; }

  // Page ids encode the home processor so that the home cluster follows the
  // current clustering configuration.
  static std::uint64_t MakePage(hsim::ProcId home_proc, std::uint64_t n) {
    return (static_cast<std::uint64_t>(home_proc + 1) << 40) | n;
  }
  hsim::ProcId home_proc_of(std::uint64_t page) const {
    return static_cast<hsim::ProcId>((page >> 40) - 1);
  }
  std::uint32_t home_cluster_of(std::uint64_t page) const {
    return cluster_of_proc(home_proc_of(page));
  }

  // The i-th processor of a source cluster always calls the i-th processor of
  // the target cluster (Section 2.2), roughly balancing the RPC load.
  hsim::ProcId PeerOf(hsim::ProcId src, std::uint32_t target_cluster) const {
    return target_cluster * config_.cluster_size + (src % config_.cluster_size);
  }

  // Creates an address space.  Region replicas are spread across each
  // cluster's memory modules by program id.
  Program& CreateProgram();
  Program& program(std::uint32_t id) { return *programs_[id]; }

  // --- kernel operations --------------------------------------------------------
  // Handles a soft page fault (the page is in core) by processor `p`, running
  // a thread of `prog`, on `page`.  Replicates the descriptor from the home
  // cluster if needed.
  hsim::Task<void> PageFault(hsim::Processor& p, Program& prog, std::uint64_t page,
                             FaultOutcome* out = nullptr);

  // Globally unmaps `page`: invalidates every remote-cluster replica so that
  // subsequent faults re-replicate.  Must be called from the page's home
  // cluster; uses the pessimistic protocol (no local locks held while the
  // invalidations are broadcast).
  hsim::Task<void> UnmapGlobal(hsim::Processor& p, std::uint64_t page);

  // Broadcasts a payload update to all replicas (write-shared workload).
  // Must be called from the home cluster.
  hsim::Task<void> GlobalUpdate(hsim::Processor& p, std::uint64_t page, std::uint64_t value);

  // Performs a null RPC round trip to the peer in `target_cluster`
  // (calibration: the paper reports 27 us).
  hsim::Task<void> NullRpc(hsim::Processor& p, std::uint32_t target_cluster);

  // Spawns an idle loop on processor `p` that services RPCs until *stop
  // becomes true.  Used by harnesses whose processors would otherwise be
  // deaf to incoming RPCs.
  hsim::Task<void> IdleLoop(hsim::Processor& p, const bool* stop);

  // --- RPC dispatch (invoked by CpuKernel) -------------------------------------
  hsim::Task<void> HandleRpc(hsim::Processor& p, RpcPacket& request);

  // Auxiliary services (e.g. the process manager) register a handler for the
  // RPC operations the memory manager does not own.
  using AuxHandler = std::function<hsim::Task<void>(hsim::Processor&, RpcPacket&)>;
  void set_aux_handler(AuxHandler handler) { aux_handler_ = std::move(handler); }

  // --- lock wrappers ------------------------------------------------------------
  // Coarse-lock acquire/release with the software interrupt gate and the
  // fixed lock-path bookkeeping.  All kernel lock sites go through these.
  hsim::Task<void> LockAcquire(hsim::Processor& p, hsim::SimLock& lock);
  hsim::Task<void> LockRelease(hsim::Processor& p, hsim::SimLock& lock);

  // Calls `target` and retries (with exponential backoff) while the handler
  // reports kWouldDeadlock -- the client half of the optimistic protocol,
  // shared by every kernel service.
  hsim::Task<void> CallWithRetry(hsim::Processor& p, hsim::ProcId target, RpcPacket* request,
                                 int* retries = nullptr);

  // Spins (gate open, servicing RPCs) until `reserve` is observed free.
  hsim::Task<void> WaitReserveFree(hsim::Processor& p, hsim::SimWord& reserve);

  // --- counters -----------------------------------------------------------------
  struct Counters {
    std::uint64_t faults = 0;
    std::uint64_t replications = 0;
    std::uint64_t rpcs = 0;
    std::uint64_t rpc_would_deadlock = 0;  // handler-side refusals
    std::uint64_t redundant_rpcs = 0;      // pessimistic: fetches that re-establishment discarded
    std::uint64_t reserve_waits = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t unmaps = 0;
    // Transport-recovery counters (exact-once invariant: rpc_ops_applied ==
    // rpcs at quiescence, whatever the fault plan injected).
    std::uint64_t rpc_ops_applied = 0;   // handler executions (dedup hits excluded)
    std::uint64_t rpc_retransmits = 0;   // timeout-driven re-sends by initiators
    std::uint64_t rpc_dup_requests = 0;  // requests discarded by the dedup window
    std::uint64_t rpc_dup_replies = 0;   // replies discarded as stale/duplicate
    std::uint64_t rpc_retry_storms = 0;  // CallWithRetry watchdog escalations
    // Packet-envelope pool exhaustion: the transport fell back to a by-value
    // copy (correct but unpooled).  Nonzero only under fault-plan storms.
    std::uint64_t rpc_pool_fallbacks = 0;
  };
  const Counters& counters() const { return counters_; }
  Counters& counters() { return counters_; }

  // --- metrics ------------------------------------------------------------------
  // Attaches an hmetrics registry.  While attached, every RPC drain records
  // its batch size into the "kernel.rpc_batch_depth" histogram, and
  // PublishCounters() snapshots the Counters struct into "kernel.*" counters.
  // The Counters struct stays the hot-path accumulator; the registry is a
  // view over it.
  void set_metrics(hmetrics::Registry* registry) {
    metrics_ = registry;
    rpc_batch_depth_ =
        registry != nullptr ? &registry->histogram("kernel.rpc_batch_depth") : nullptr;
  }
  hmetrics::Registry* metrics() { return metrics_; }
  hmetrics::Histogram* rpc_batch_depth_hist() { return rpc_batch_depth_; }

  // --- lock profiling -----------------------------------------------------------
  // Attaches an hprof site table: every cluster's page-table coarse lock gets
  // a site ("cluster<i>/page-table"), and each program created *afterwards*
  // gets one site per region-lock replica ("program<p>/cluster<i>/region").
  // Cluster size is the site's procs_per_cluster, so the handoff matrix
  // follows the configured clustering.  Call before CreateProgram; pass
  // nullptr to stop profiling future programs (attached sites stay attached).
  void AttachLockProfiler(hprof::SiteTable* sites);

  // --- flight recording ---------------------------------------------------------
  // Attaches a flight recorder: every CpuKernel::Call opens a per-request
  // record (rpc phase = send-to-reply, with the per-call retransmit count)
  // and the handler side opens a causally linked child record whose inbox
  // phase starts at the initiator's send instant.  Records are stamped
  // directly in p.now() ticks -- the simulator interleaves coroutines on one
  // host thread, so no thread-local ledger is involved.  Pass nullptr to
  // detach; the recorder must outlive the attached window.
  void AttachFlightRecorder(hflight::FlightRecorder* recorder) { flight_ = recorder; }
  hflight::FlightRecorder* flight() { return flight_; }

  // Publishes the current counter values into the attached registry.  Call
  // once at the end of a run: counters are cumulative, so publishing deltas
  // mid-run would double-count.
  void PublishCounters() {
    if (metrics_ == nullptr) {
      return;
    }
    metrics_->counter("kernel.faults").Add(counters_.faults);
    metrics_->counter("kernel.replications").Add(counters_.replications);
    metrics_->counter("kernel.rpcs").Add(counters_.rpcs);
    metrics_->counter("kernel.rpc_would_deadlock").Add(counters_.rpc_would_deadlock);
    metrics_->counter("kernel.redundant_rpcs").Add(counters_.redundant_rpcs);
    metrics_->counter("kernel.reserve_waits").Add(counters_.reserve_waits);
    metrics_->counter("kernel.invalidations").Add(counters_.invalidations);
    metrics_->counter("kernel.unmaps").Add(counters_.unmaps);
    metrics_->counter("kernel.rpc_ops_applied").Add(counters_.rpc_ops_applied);
    metrics_->counter("kernel.rpc_retransmits").Add(counters_.rpc_retransmits);
    metrics_->counter("kernel.rpc_dup_requests").Add(counters_.rpc_dup_requests);
    metrics_->counter("kernel.rpc_dup_replies").Add(counters_.rpc_dup_replies);
    metrics_->counter("kernel.rpc_retry_storms").Add(counters_.rpc_retry_storms);
    metrics_->counter("kernel.rpc_pool_fallbacks").Add(counters_.rpc_pool_fallbacks);
  }

 private:
  hsim::Task<void> HandleGetPage(hsim::Processor& p, RpcPacket& request);
  hsim::Task<void> HandleInvalidate(hsim::Processor& p, RpcPacket& request);
  hsim::Task<void> HandleGlobalUpdate(hsim::Processor& p, RpcPacket& request);

  // Computes for `cycles`, taking interrupt points periodically (interrupts
  // are enabled whenever no coarse lock is held).
  hsim::Task<void> ComputeInterruptible(hsim::Processor& p, hsim::Tick cycles);

  hsim::Machine* machine_;
  KernelConfig config_;
  // Declared before clusters_: every cluster's page table borrows it.
  std::unique_ptr<DescriptorArena> arena_;
  std::unique_ptr<halloc::SlabAllocator<RpcPacket>> packet_pool_;
  std::vector<std::unique_ptr<ClusterKernel>> clusters_;
  std::vector<std::unique_ptr<CpuKernel>> cpus_;
  std::vector<std::unique_ptr<Program>> programs_;
  AuxHandler aux_handler_;
  // Two private per-processor PTE words written during fault processing.
  std::vector<std::vector<hsim::SimWord*>> pte_words_;
  Counters counters_;
  hmetrics::Registry* metrics_ = nullptr;
  hmetrics::Histogram* rpc_batch_depth_ = nullptr;
  hprof::SiteTable* lock_profiler_ = nullptr;
  hflight::FlightRecorder* flight_ = nullptr;
};

// Creates a coarse-grained lock of the configured kind, homed on `module`.
std::unique_ptr<hsim::SimLock> MakeCoarseLock(hsim::Machine* machine, hsim::ModuleId module,
                                              hsim::LockKind kind);

// Formats the retry-storm watchdog's diagnostic.  A storm used to be reported
// as a bare counter bump naming only the op code; in a multi-machine mesh
// that left "which machine is starving us?" unanswerable from the log.  The
// message names the destination machine, cluster, and processor alongside the
// op and the consecutive-refusal count.  Free function so tests can pin the
// format without provoking a live storm.
std::string StormDiagnostic(std::uint32_t machine_id, hsim::ProcId src, hsim::ProcId target,
                            std::uint32_t target_cluster, RpcOp op, int consecutive);

}  // namespace hkernel

#endif  // HKERNEL_KERNEL_H_
