#include "src/hkernel/process.h"

#include <algorithm>
#include <cassert>

#include "src/hsim/locks/reserve_bit.h"

namespace hkernel {

using hsim::SimReserve;

// ---------------------------------------------------------------------------
// ProcessTable: open addressing keyed by pid, double-hash-free linear probe.
// The table is sized generously, so probes are short; every probe is a real
// simulated memory access, charged like any other kernel structure walk.
// ---------------------------------------------------------------------------

ProcessTable::ProcessTable(hsim::Machine* machine, hsim::ModuleId home, std::uint32_t capacity) {
  descriptors_.reserve(capacity);
  slots_.reserve(capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    ProcessDescriptor d;
    d.pid = &machine->AllocWord(home, 0);
    d.state = &machine->AllocWord(home, kProcFree);
    d.reserve = &machine->AllocWord(home, SimReserve::kFree);
    d.parent = &machine->AllocWord(home, kNoPid);
    d.children = &machine->AllocWord(home, 0);
    d.mailbox = &machine->AllocWord(home, 0);
    descriptors_.push_back(d);
    slots_.push_back(d.pid);  // the slot word *is* the descriptor's pid word
  }
}

hsim::Task<std::uint32_t> ProcessTable::Lookup(hsim::Processor& p, Pid pid) {
  const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
  const std::uint32_t start = static_cast<std::uint32_t>((pid * 0x9E3779B97F4A7C15ULL) >> 32) % n;
  co_await p.Exec(2, 0);
  for (std::uint32_t probe = 0; probe < n; ++probe) {
    const std::uint32_t i = (start + probe) % n;
    const std::uint64_t slot_pid = co_await p.Load(*slots_[i]);
    co_await p.Exec(0, 1);
    if (slot_pid == pid) {
      co_return i + 1;
    }
    if (slot_pid == kNoPid) {
      co_return 0;  // open addressing: an empty slot ends the probe chain
    }
  }
  co_return 0;
}

hsim::Task<std::uint32_t> ProcessTable::Insert(hsim::Processor& p, Pid pid) {
  const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
  const std::uint32_t start = static_cast<std::uint32_t>((pid * 0x9E3779B97F4A7C15ULL) >> 32) % n;
  co_await p.Exec(2, 0);
  for (std::uint32_t probe = 0; probe < n; ++probe) {
    const std::uint32_t i = (start + probe) % n;
    const std::uint64_t slot_pid = co_await p.Load(*slots_[i]);
    co_await p.Exec(0, 1);
    if (slot_pid == kNoPid) {
      ProcessDescriptor& d = descriptors_[i];
      co_await p.Store(*d.pid, pid);
      co_await p.Store(*d.state, kProcAlive);
      co_await p.Store(*d.parent, kNoPid);
      co_await p.Store(*d.children, 0);
      co_await p.Store(*d.mailbox, 0);
      ++live_;
      co_return i + 1;
    }
  }
  co_return 0;  // table full
}

hsim::Task<void> ProcessTable::Remove(hsim::Processor& p, std::uint32_t ref) {
  // NOTE: true open-addressing removal needs tombstones; since pids are never
  // reused within a run and probe chains are short, a tombstone is modelled
  // by leaving the slot marked dead-but-occupied.
  ProcessDescriptor& d = descriptors_[ref - 1];
  co_await p.Store(*d.state, kProcFree);
  co_await p.Store(*d.pid, ~0ULL);  // tombstone: occupied, matches no pid
  --live_;
}

// ---------------------------------------------------------------------------
// ProcessManager
// ---------------------------------------------------------------------------

ProcessManager::ProcessManager(KernelSystem* system, TreePolicy policy,
                               std::uint32_t capacity_per_cluster)
    : system_(system), policy_(policy) {
  hsim::Machine& machine = system_->machine();
  const std::uint32_t nclusters = system_->num_clusters();
  next_pid_.assign(nclusters, 1);
  for (std::uint32_t c = 0; c < nclusters; ++c) {
    auto state = std::make_unique<ClusterState>();
    // The process structures live on the cluster's *second* module when there
    // is one, keeping them off the memory-manager heap's module.
    const auto& procs = system_->cluster(c).procs();
    const hsim::ModuleId home = procs.size() > 1 ? procs[1] : procs[0];
    state->lock = MakeCoarseLock(&machine, home, system_->config().lock_kind);
    state->table = std::make_unique<ProcessTable>(&machine, home, capacity_per_cluster);
    state->links.reserve(capacity_per_cluster);
    for (std::uint32_t i = 0; i < capacity_per_cluster; ++i) {
      state->links.push_back(
          ChildLink{&machine.AllocWord(home, 0), &machine.AllocWord(home, 0)});
      state->free_links.push_back(capacity_per_cluster - i);
    }
    clusters_.push_back(std::move(state));
  }
  system_->set_aux_handler(
      [this](hsim::Processor& p, RpcPacket& request) { return HandleRpc(p, request); });
}

ProcessManager::~ProcessManager() { system_->set_aux_handler(nullptr); }

std::uint32_t ProcessManager::live(std::uint32_t cluster) const {
  return clusters_[cluster]->table->live();
}

std::uint32_t ProcessManager::AllocLink(std::uint32_t cluster) {
  ClusterState& c = *clusters_[cluster];
  assert(!c.free_links.empty() && "child-link pool exhausted");
  const std::uint32_t ref = c.free_links.back();
  c.free_links.pop_back();
  return ref;
}

void ProcessManager::FreeLink(std::uint32_t cluster, std::uint32_t ref) {
  clusters_[cluster]->free_links.push_back(ref);
}

hsim::Task<Pid> ProcessManager::Create(hsim::Processor& p, hsim::ProcId home_proc, Pid parent) {
  const std::uint32_t c = system_->cluster_of_proc(home_proc);
  assert(system_->cluster_of_proc(p.id()) == c && "Create must run in the home cluster");
  const Pid pid = MakePid(home_proc, next_pid_[c]++);
  ++stats_.creates;

  ClusterState& cs = cluster(c);
  co_await system_->LockAcquire(p, *cs.lock);
  const std::uint32_t ref = co_await cs.table->Insert(p, pid);
  assert(ref != 0 && "process table full");
  co_await p.Store(*cs.table->desc(ref).parent, parent);
  co_await system_->LockRelease(p, *cs.lock);

  if (parent != kNoPid) {
    const std::uint32_t pc = home_cluster_of(parent);
    if (pc == c) {
      co_await AddChildLocal(p, pc, parent, pid);
    } else {
      RpcPacket request;
      request.op = RpcOp::kProcAddChild;
      request.page = parent;
      request.arg = pid;
      co_await system_->CallWithRetry(p, system_->PeerOf(p.id(), pc), &request);
      assert(request.status == RpcStatus::kOk);
    }
  }
  co_return pid;
}

hsim::Task<void> ProcessManager::AddChildLocal(hsim::Processor& p, std::uint32_t c, Pid parent,
                                               Pid child) {
  ClusterState& cs = cluster(c);
  co_await system_->LockAcquire(p, *cs.lock);
  const std::uint32_t pref = co_await cs.table->Lookup(p, parent);
  if (pref != 0) {
    const std::uint32_t link = AllocLink(c);
    co_await p.Exec(3, 1);  // pool bookkeeping
    ChildLink& node = cs.links[link - 1];
    co_await p.Store(*node.child, child);
    const std::uint64_t head = co_await p.Load(*cs.table->desc(pref).children);
    co_await p.Store(*node.next, head);
    co_await p.Store(*cs.table->desc(pref).children, link);
  }
  co_await system_->LockRelease(p, *cs.lock);
}

hsim::Task<bool> ProcessManager::UnlinkChildLocal(hsim::Processor& p, std::uint32_t c,
                                                  Pid parent, Pid child, bool may_wait) {
  ClusterState& cs = cluster(c);
  while (true) {
    co_await system_->LockAcquire(p, *cs.lock);
    const std::uint32_t pref = co_await cs.table->Lookup(p, parent);
    if (pref == 0) {
      co_await system_->LockRelease(p, *cs.lock);
      co_return true;  // parent already gone; nothing to unlink
    }
    ProcessDescriptor& pd = cs.table->desc(pref);

    if (policy_ == TreePolicy::kCombined) {
      // The tree links live inside the descriptor that message passing also
      // reserves, so the unlink must take the descriptor's reserve bit.
      const bool reserved = co_await SimReserve::TrySetExclusive(p, *pd.reserve);
      if (!reserved) {
        co_await system_->LockRelease(p, *cs.lock);
        if (!may_wait) {
          co_return false;  // handler context: fail, initiator retries
        }
        co_await system_->WaitReserveFree(p, *pd.reserve);
        continue;
      }
    }
    // Separate-tree policy: the chain is a dedicated structure touched only
    // under this coarse lock, in parent-before-child order, so no reserve is
    // needed and handlers never have to fail.

    // Walk the chain and unlink.
    std::uint64_t link = co_await p.Load(*pd.children);
    hsim::SimWord* prev_next = pd.children;
    while (link != 0) {
      co_await p.Exec(0, 1);
      ChildLink& node = cs.links[link - 1];
      const std::uint64_t child_pid = co_await p.Load(*node.child);
      if (child_pid == child) {
        const std::uint64_t next = co_await p.Load(*node.next);
        co_await p.Store(*prev_next, next);
        FreeLink(c, static_cast<std::uint32_t>(link));
        co_await p.Exec(3, 1);
        break;
      }
      prev_next = node.next;
      link = co_await p.Load(*node.next);
    }

    if (policy_ == TreePolicy::kCombined) {
      co_await SimReserve::ClearExclusive(p, *pd.reserve);
    }
    co_await system_->LockRelease(p, *cs.lock);
    co_return true;
  }
}

hsim::Task<void> ProcessManager::Destroy(hsim::Processor& p, Pid pid) {
  const std::uint32_t c = home_cluster_of(pid);
  assert(system_->cluster_of_proc(p.id()) == c && "Destroy must run in the home cluster");
  ++stats_.destroys;
  ClusterState& cs = cluster(c);

  // 1. Reserve the descriptor and mark it dying so message deposits drain.
  std::uint32_t ref = 0;
  Pid parent = kNoPid;
  while (true) {
    co_await system_->LockAcquire(p, *cs.lock);
    ref = co_await cs.table->Lookup(p, pid);
    assert(ref != 0 && "destroying a non-existent process");
    ProcessDescriptor& d = cs.table->desc(ref);
    const bool reserved = co_await SimReserve::TrySetExclusive(p, *d.reserve);
    if (reserved) {
      co_await p.Store(*d.state, kProcDying);
      parent = co_await p.Load(*d.parent);
      co_await system_->LockRelease(p, *cs.lock);
      break;
    }
    co_await system_->LockRelease(p, *cs.lock);
    co_await system_->WaitReserveFree(p, *cs.table->desc(ref).reserve);
  }

  // 2. Unlink from the parent's child chain, possibly in another cluster.
  //    We still hold our own reserve bit -- the optimistic protocol: the
  //    remote side fails instead of waiting, we retry.
  if (parent != kNoPid) {
    const std::uint32_t pc = home_cluster_of(parent);
    if (pc == c) {
      const bool ok = co_await UnlinkChildLocal(p, pc, parent, pid, /*may_wait=*/true);
      assert(ok);
      (void)ok;
    } else {
      RpcPacket request;
      request.op = RpcOp::kProcUnlinkChild;
      request.page = parent;
      request.arg = pid;
      int retries = 0;
      co_await system_->CallWithRetry(p, system_->PeerOf(p.id(), pc), &request, &retries);
      stats_.unlink_retries += static_cast<std::uint64_t>(retries);
      assert(request.status == RpcStatus::kOk);
    }
  }

  // 3. Free the descriptor.
  co_await system_->LockAcquire(p, *cs.lock);
  co_await cs.table->Remove(p, ref);
  co_await system_->LockRelease(p, *cs.lock);
  // The reserve word is left kExclusive on a tombstoned slot; clear it so the
  // (type-stable) slot is reusable.
  co_await SimReserve::ClearExclusive(p, *cs.table->desc(ref).reserve);
}

hsim::Task<bool> ProcessManager::SendMessage(hsim::Processor& p, Pid to) {
  const std::uint32_t tc = home_cluster_of(to);
  ++stats_.messages;
  if (system_->cluster_of_proc(p.id()) == tc) {
    const DepositResult result = co_await DepositLocal(p, tc, to, /*may_wait=*/true);
    co_return result == DepositResult::kOk;
  }
  RpcPacket request;
  request.op = RpcOp::kProcDeposit;
  request.page = to;
  co_await system_->CallWithRetry(p, system_->PeerOf(p.id(), tc), &request);
  co_return request.status == RpcStatus::kOk;
}

hsim::Task<ProcessManager::DepositResult> ProcessManager::DepositLocal(hsim::Processor& p,
                                                                       std::uint32_t c, Pid to,
                                                                       bool may_wait) {
  ClusterState& cs = cluster(c);
  while (true) {
    co_await system_->LockAcquire(p, *cs.lock);
    const std::uint32_t ref = co_await cs.table->Lookup(p, to);
    if (ref == 0) {
      co_await system_->LockRelease(p, *cs.lock);
      co_return DepositResult::kGone;
    }
    ProcessDescriptor& d = cs.table->desc(ref);
    const std::uint64_t state = co_await p.Load(*d.state);
    if (state != kProcAlive) {
      co_await system_->LockRelease(p, *cs.lock);
      co_return DepositResult::kGone;  // dying: no new messages
    }
    const bool reserved = co_await SimReserve::TrySetExclusive(p, *d.reserve);
    if (!reserved) {
      co_await system_->LockRelease(p, *cs.lock);
      if (!may_wait) {
        co_return DepositResult::kBusy;
      }
      co_await system_->WaitReserveFree(p, *d.reserve);
      continue;
    }
    co_await system_->LockRelease(p, *cs.lock);
    // Transfer the message while holding the reserve bit (the long,
    // fine-grained hold the hybrid strategy is designed for).
    co_await p.Compute(160);  // copy a small message
    const std::uint64_t count = co_await p.Load(*d.mailbox);
    co_await p.Store(*d.mailbox, count + 1);
    co_await SimReserve::ClearExclusive(p, *d.reserve);
    co_return DepositResult::kOk;
  }
}

hsim::Task<std::uint64_t> ProcessManager::ReadMailbox(hsim::Processor& p, Pid pid) {
  const std::uint32_t c = home_cluster_of(pid);
  ClusterState& cs = cluster(c);
  co_await system_->LockAcquire(p, *cs.lock);
  const std::uint32_t ref = co_await cs.table->Lookup(p, pid);
  std::uint64_t count = 0;
  if (ref != 0) {
    count = co_await p.Load(*cs.table->desc(ref).mailbox);
  }
  co_await system_->LockRelease(p, *cs.lock);
  co_return count;
}

hsim::Task<void> ProcessManager::HandleRpc(hsim::Processor& p, RpcPacket& request) {
  switch (request.op) {
    case RpcOp::kProcAddChild:
      co_await AddChildLocal(p, system_->cluster_of_proc(p.id()), request.page, request.arg);
      request.status = RpcStatus::kOk;
      co_return;
    case RpcOp::kProcUnlinkChild: {
      const bool ok = co_await UnlinkChildLocal(p, system_->cluster_of_proc(p.id()),
                                                request.page, request.arg,
                                                /*may_wait=*/policy_ == TreePolicy::kSeparateTree);
      request.status = ok ? RpcStatus::kOk : RpcStatus::kWouldDeadlock;
      co_return;
    }
    case RpcOp::kProcDeposit: {
      const DepositResult result = co_await DepositLocal(
          p, system_->cluster_of_proc(p.id()), request.page, /*may_wait=*/false);
      // A missing or dying target is kNotFound (the sender gives up); a
      // reserved one is kWouldDeadlock (the sender retries).
      switch (result) {
        case DepositResult::kOk:
          request.status = RpcStatus::kOk;
          break;
        case DepositResult::kGone:
          request.status = RpcStatus::kNotFound;
          break;
        case DepositResult::kBusy:
          request.status = RpcStatus::kWouldDeadlock;
          break;
      }
      co_return;
    }
    default:
      assert(false && "not a process-manager op");
      co_return;
  }
}

}  // namespace hkernel
