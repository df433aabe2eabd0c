// Inter-processor RPC with soft interrupt masking (Section 3.2).
//
// HURRICANE invokes cross-cluster operations by interrupting a processor in
// the target cluster (the i-th processor of the source cluster always calls
// the i-th processor of the target cluster, balancing the RPC load).  Because
// the kernel runs with interrupts enabled, a handler could interrupt code
// that holds the very lock the handler needs.  The paper's resolution
// (adapted from Stodolsky et al.) is a per-processor software interrupt gate:
// the flag is set before any lock that could deadlock with a handler is
// acquired, handlers run only when the flag is clear, and work arriving while
// the flag is set is deferred to a per-processor queue that is drained when
// the flag clears.
//
// In this simulator interrupts are polled: kernel code calls IrqPoint() at
// the same program points where HURRICANE's handlers could run (idle loops,
// reserve-bit spins, RPC reply waits).  The gate semantics are identical.
//
// While a processor waits for an RPC reply it keeps servicing incoming
// requests: the processor itself is a lockable resource (Section 2.3), and
// refusing to service requests while blocked is exactly the deadlock the
// paper describes between processors P1 and P2.
//
// The transport may drop, duplicate or delay any leg (hsim::FaultPlan).
// Exact-once application comes from the shared channel core
// (src/hsim/exact_once.h): one CallSlot per processor, one DedupWindow per
// source processor, RouteSend for every leg.  What is the kernel's own is the
// wait step -- the initiator keeps servicing its inbox (IrqPoint) while it
// polls for the reply -- and a jittered doubling retransmit timeout.

#ifndef HKERNEL_RPC_H_
#define HKERNEL_RPC_H_

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/hkernel/config.h"
#include "src/hsim/exact_once.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"

namespace hkernel {

enum class RpcOp : std::uint8_t {
  kNull,          // measurement only
  kGetPage,       // fetch a page descriptor's payload from its home cluster
  kInvalidate,    // remove a replica of a page descriptor
  kGlobalUpdate,  // apply a broadcast update to a replica's payload
  // Process management (see process.h).
  kProcAddChild,     // link arg (child pid) under page (parent pid)
  kProcUnlinkChild,  // unlink arg (child pid) from page (parent pid)
  kProcDeposit,      // deposit a message into page (target pid)'s mailbox
};

inline const char* RpcOpName(RpcOp op) {
  switch (op) {
    case RpcOp::kNull:
      return "null";
    case RpcOp::kGetPage:
      return "get_page";
    case RpcOp::kInvalidate:
      return "invalidate";
    case RpcOp::kGlobalUpdate:
      return "global_update";
    case RpcOp::kProcAddChild:
      return "proc_add_child";
    case RpcOp::kProcUnlinkChild:
      return "proc_unlink_child";
    case RpcOp::kProcDeposit:
      return "proc_deposit";
  }
  return "?";
}

enum class RpcStatus : std::uint8_t {
  kPending,
  kOk,
  kWouldDeadlock,  // a reserve bit was held; caller must back off and retry
  kNotFound,       // the descriptor is gone; caller must re-establish state
};

// One RPC invocation and its wire format: a self-contained value.  The
// caller fills op/page/arg, the handler fills status/payload, and a reply is
// a copy of the request with is_reply set.  The transport owns copies in
// transit, so no lifetime ties the wire to the initiator's frame.
struct RpcPacket {
  bool is_reply = false;
  std::uint64_t seq = 0;  // per-initiator, monotonically increasing from 1
  RpcOp op = RpcOp::kNull;
  std::uint64_t page = 0;
  std::uint64_t arg = 0;
  hsim::ProcId src_proc = 0;      // the initiator (replies travel back to it)
  std::uint32_t src_cluster = 0;
  RpcStatus status = RpcStatus::kPending;
  // Flight-recorder causal link (0 = untracked): the initiator's record id
  // and the send instant travel with the request so the handler side can open
  // a child record whose inbox phase starts at the wire, not at delivery.
  std::uint64_t flight_id = 0;
  std::uint64_t flight_send = 0;
  std::array<std::uint64_t, KernelConfig::kPayloadWords> payload{};
};

class KernelSystem;

// Per-processor kernel state: the RPC inbox, the soft interrupt gate, the
// deferred-work queue, and the channel state (the call slot and one dedup
// window per source processor).
class CpuKernel {
 public:
  CpuKernel(KernelSystem* system, hsim::ProcId id, std::uint32_t num_procs)
      : system_(system), id_(id), peers_(num_procs) {}
  CpuKernel(const CpuKernel&) = delete;
  CpuKernel& operator=(const CpuKernel&) = delete;

  hsim::ProcId id() const { return id_; }

  // --- soft interrupt gate ---------------------------------------------------
  // Nested masking is allowed (lock sites nest).
  void Mask() { ++mask_depth_; }
  bool masked() const { return mask_depth_ > 0; }

  // Clears one level of masking.  The caller must follow with IrqPoint() (or
  // use KernelSystem's lock wrappers, which do) so deferred work is drained
  // promptly.  An unbalanced Unmask would leave the gate permanently ajar --
  // a later Mask() inside a critical section would "close" it to depth 0 and
  // let a handler interrupt a lock holder -- so it aborts loudly instead
  // (same convention as hlock's thread-id exhaustion).
  void Unmask();

  // A real processor has one program counter: at most one context can be in
  // the coarse-lock acquire/hold/release path at a time (per-processor MCS
  // queue nodes depend on it).  The simulator interleaves co-located
  // coroutines at awaits, so KernelSystem's lock wrappers serialize on this
  // flag.
  bool lock_path_busy() const { return lock_path_busy_; }
  void set_lock_path_busy(bool busy) { lock_path_busy_ = busy; }

  // Delivery (called by the RPC transport at the interrupt instant): a
  // request joins the inbox; a reply is offered to the call slot, and a stale
  // one is counted and discarded.
  void Deliver(const RpcPacket& packet);

  // Services pending requests if the gate is open.  If the gate is closed,
  // requests are shunted (with the handler-entry cost) onto the deferred
  // queue, mirroring the paper's mechanism.  Nearly every call finds nothing
  // to take; it then returns an empty Task, ready at once, and builds no
  // coroutine frame.
  hsim::Task<void> IrqPoint(hsim::Processor& p) {
    if (in_handler_ || (inbox_.empty() && (masked() || deferred_.empty()))) {
      return {};
    }
    return TakeInterrupts(p);
  }

  // Sends `request` to `target` and waits for the reply, servicing our own
  // incoming requests while waiting and retransmitting on timeout; the
  // reply's status and payload are copied back into `request`.  Must be
  // called with the gate open and no coarse locks held.  Stop-and-wait: a
  // processor has at most one outstanding call (enforced).
  hsim::Task<void> Call(hsim::Processor& p, hsim::ProcId target, RpcPacket* request);

  // --- statistics -------------------------------------------------------------
  std::uint64_t handled() const { return handled_; }
  std::uint64_t deferred_count() const { return deferred_total_; }
  bool in_handler() const { return in_handler_; }
  // Undrained inbox + deferred depth; at engine idle these are necessarily
  // tail duplicates/retransmits of already-completed calls (an initiator
  // never abandons an incomplete call).
  std::size_t backlog() const { return inbox_.size() + deferred_.size(); }

 private:
  // IrqPoint's work when there is some.
  hsim::Task<void> TakeInterrupts(hsim::Processor& p);
  hsim::Task<void> RunHandlers(hsim::Processor& p, std::deque<RpcPacket>* queue, int budget);

  // Hands a packet to the transport: consults the machine's fault plan and
  // spawns the (possibly dropped/duplicated/delayed) delivery task(s).
  void SendPacket(hsim::Processor& p, hsim::ProcId target, const RpcPacket& packet);

  KernelSystem* system_;
  hsim::ProcId id_;
  int mask_depth_ = 0;
  bool in_handler_ = false;
  bool lock_path_busy_ = false;
  std::deque<RpcPacket> inbox_;
  std::deque<RpcPacket> deferred_;
  std::uint64_t handled_ = 0;
  std::uint64_t deferred_total_ = 0;
  hsim::CallSlot<RpcPacket> call_;
  std::vector<hsim::DedupWindow<RpcPacket>> peers_;  // by source processor
};

}  // namespace hkernel

#endif  // HKERNEL_RPC_H_
