// Program and process management: the family tree (Section 2.5).
//
// HURRICANE maintains a family tree of processes whose links run *through*
// the process descriptors -- the same descriptors message passing uses.  The
// paper's two lessons, both reproduced here:
//
//   "Retries": all processes of a program are destroyed at about the same
//   time; destruction updates up to three descriptors (the process, its
//   parent, and a sibling) that may live in three clusters, so deadlock-
//   avoidance retries are common during parallel destruction, independent of
//   the protocol chosen.
//
//   "Data structure design": combining two structures with different locking
//   characteristics in one entity caused the trouble.  Destruction has a
//   natural lock order (the tree); message passing involves two arbitrary
//   processes with no natural order.  Had the family tree been a separate
//   structure, tree operations could lock in tree order and avoid the RPC
//   retries.  `TreePolicy::kSeparateTree` implements that alternative: tree
//   links live in their own entries, only ever locked parent-before-child,
//   so the remote handlers may wait (bounded by the ordering) instead of
//   failing, and the retry storm disappears.
//
// Process descriptors are never replicated (they are write-shared); all
// operations on a remote process go through an RPC to its home cluster.

#ifndef HKERNEL_PROCESS_H_
#define HKERNEL_PROCESS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hkernel/kernel.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"

namespace hkernel {

using Pid = std::uint64_t;
inline constexpr Pid kNoPid = 0;

// How the family tree is stored (the Section 2.5 design lesson).
enum class TreePolicy {
  kCombined,      // links inside the process descriptors (HURRICANE's design)
  kSeparateTree,  // links in a dedicated structure with tree-order locking
};

struct ProcessDescriptor {
  hsim::SimWord* pid;
  hsim::SimWord* state;         // kProcFree / kProcAlive / kProcDying
  hsim::SimWord* reserve;       // reserve word, shared by messaging (and, in
                                // the combined design, by tree operations)
  hsim::SimWord* parent;        // Pid
  hsim::SimWord* children;      // head of the child chain (node ref, 0 = none)
  hsim::SimWord* mailbox;       // message count
};

// One link of a parent's child chain, allocated in the parent's cluster.
struct ChildLink {
  hsim::SimWord* child;  // Pid
  hsim::SimWord* next;   // node ref (0 = end)
};

inline constexpr std::uint64_t kProcFree = 0;
inline constexpr std::uint64_t kProcAlive = 1;
inline constexpr std::uint64_t kProcDying = 2;

// Per-cluster process table: a small open table keyed by pid, protected by
// its own coarse lock (a separate lock class from the page tables; the lock
// hierarchy across classes makes holding one while asking for the other
// one-directional).
class ProcessTable {
 public:
  ProcessTable(hsim::Machine* machine, hsim::ModuleId home, std::uint32_t capacity);

  // All operations require the cluster's process lock.
  hsim::Task<std::uint32_t> Lookup(hsim::Processor& p, Pid pid);  // 0 = not found, else idx+1
  hsim::Task<std::uint32_t> Insert(hsim::Processor& p, Pid pid);
  hsim::Task<void> Remove(hsim::Processor& p, std::uint32_t ref);

  ProcessDescriptor& desc(std::uint32_t ref) { return descriptors_[ref - 1]; }
  std::uint32_t live() const { return live_; }

 private:
  std::vector<ProcessDescriptor> descriptors_;
  std::vector<hsim::SimWord*> slots_;  // slot i holds the pid stored in descriptor i (0 = free)
  std::uint32_t live_ = 0;
};

// The process-management service layered over a KernelSystem: per-cluster
// process tables + the RPC handlers for remote-descriptor operations.
class ProcessManager {
 public:
  ProcessManager(KernelSystem* system, TreePolicy policy,
                 std::uint32_t capacity_per_cluster = 256);
  ~ProcessManager();

  TreePolicy policy() const { return policy_; }

  // Creates a process homed on processor `home_proc`'s cluster, as a child of
  // `parent` (kNoPid for a root).  Returns the new pid.  Must run on a
  // processor in the home cluster.
  hsim::Task<Pid> Create(hsim::Processor& p, hsim::ProcId home_proc, Pid parent);

  // Destroys `pid`: unlinks it from the family tree (which may touch the
  // parent's descriptor in another cluster) and frees its descriptor.  Must
  // run on a processor in pid's home cluster -- the per-process teardown of a
  // program runs where the process lives, which is what makes the parallel
  // destruction of a program a cross-cluster storm.
  hsim::Task<void> Destroy(hsim::Processor& p, Pid pid);

  // Message passing: deposits a message in `to`'s mailbox, reserving the
  // target descriptor while the transfer happens.  Two arbitrary processes,
  // no natural lock order -- the operation that poisoned the combined design.
  hsim::Task<bool> SendMessage(hsim::Processor& p, Pid to);

  hsim::Task<std::uint64_t> ReadMailbox(hsim::Processor& p, Pid pid);

  // Number of live processes in `cluster`'s table.
  std::uint32_t live(std::uint32_t cluster) const;

  struct Stats {
    std::uint64_t creates = 0;
    std::uint64_t destroys = 0;
    std::uint64_t messages = 0;
    std::uint64_t unlink_retries = 0;  // would-deadlock retries during destruction
  };
  const Stats& stats() const { return stats_; }

  std::uint32_t home_cluster_of(Pid pid) const {
    return system_->cluster_of_proc(static_cast<hsim::ProcId>((pid >> 40) - 1));
  }
  static Pid MakePid(hsim::ProcId home_proc, std::uint64_t n) {
    return (static_cast<std::uint64_t>(home_proc + 1) << 40) | n;
  }

  // RPC dispatch, called from KernelSystem::HandleRpc.
  hsim::Task<void> HandleRpc(hsim::Processor& p, RpcPacket& request);

 private:
  struct ClusterState {
    std::unique_ptr<hsim::SimLock> lock;  // the cluster's process-table lock
    std::unique_ptr<ProcessTable> table;
    std::vector<ChildLink> links;  // child-chain node pool
    std::vector<std::uint32_t> free_links;
  };

  // Allocates / frees child-chain nodes (host bookkeeping; the nodes' words
  // are simulated memory).
  std::uint32_t AllocLink(std::uint32_t cluster);
  void FreeLink(std::uint32_t cluster, std::uint32_t ref);

  enum class DepositResult { kOk, kGone, kBusy };

  // Links `child` under `parent` in cluster `c` (both local to that cluster).
  hsim::Task<void> AddChildLocal(hsim::Processor& p, std::uint32_t c, Pid parent, Pid child);

  // Deposits a message into `to`'s mailbox in cluster `c`.  With may_wait the
  // caller spins on a reserved descriptor; otherwise it reports kBusy.
  hsim::Task<DepositResult> DepositLocal(hsim::Processor& p, std::uint32_t c, Pid to,
                                         bool may_wait);

  // Unlinks `child` from `parent`'s child list; both descriptors live in
  // `cluster`.  Returns false (would-deadlock) if a needed descriptor is
  // reserved and the policy requires failing instead of waiting.
  hsim::Task<bool> UnlinkChildLocal(hsim::Processor& p, std::uint32_t cluster, Pid parent,
                                    Pid child, bool may_wait);

  ClusterState& cluster(std::uint32_t id) { return *clusters_[id]; }

  KernelSystem* system_;
  TreePolicy policy_;
  std::vector<std::unique_ptr<ClusterState>> clusters_;
  std::vector<std::uint64_t> next_pid_;  // per cluster
  Stats stats_;
};

}  // namespace hkernel

#endif  // HKERNEL_PROCESS_H_
