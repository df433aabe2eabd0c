// TryLock support for Distributed Locks (Section 3.2).
//
// Two variants, matching the paper's two attempts:
//
//   McsTryV1Lock -- the per-thread queue node carries an in_use flag.  An
//   interrupt handler (or any re-entrant context) checks the flag before
//   enqueueing: if set, it has interrupted this thread's own lock code and
//   must not wait.  Not a true TryLock -- if the node is free the caller
//   enqueues and *waits* -- but it provably cannot deadlock with the context
//   it interrupted.  The flag is maintained on the common path, which is the
//   base-performance cost the paper observed.
//
//   McsTryV2Lock -- a true TryLock: a failed attempt abandons its queue node
//   in place and returns immediately; releases garbage-collect abandoned
//   nodes while handing the lock over (cf. Craig's timeout queue locks).
//   The protocol is algo::TimeoutMcsCore's -- the abandonable-node queue
//   HMCS-T uses for its levels -- so V2 is a try_lock with a zero budget.
//   The paper's conclusion is reproduced by the tests and benches: under
//   saturation a queue lock is handed directly from holder to waiter, so
//   TryLock callers essentially never see it free -- retry-based access to a
//   fair lock is only probabilistically fair and starves.
//
// Both locks are templated on the Platform policy (src/hlock/platform.h);
// the unsuffixed aliases bind StdPlatform.  V1 runs its queue on
// BasicMcsLock (mcs_locks.h) and adds the in_use flag around it: its
// interrupt re-entry has no simulator mapping (see algo/backend.h).  The
// StdPlatform instantiations are explicit (mcs_try_lock.cc) so other
// translation units link against one copy.

#ifndef HLOCK_MCS_TRY_LOCK_H_
#define HLOCK_MCS_TRY_LOCK_H_

#include <atomic>
#include <cstdint>

#include "src/hlock/algo/backend.h"
#include "src/hlock/algo/native_backend.h"
#include "src/hlock/algo/timeout_mcs.h"
#include "src/hlock/mcs_locks.h"
#include "src/hlock/padded.h"
#include "src/hlock/platform.h"
#include "src/hprof/lock_site.h"

namespace hlock {

// --- Variant 1 ----------------------------------------------------------------
//
// Single-owner-context invariant: a given thread's queue node -- and in
// particular its in_use flag -- is touched only by that thread and by
// interrupt contexts *nested on* that thread (the paper's model: the handler
// borrows the CPU, so handler and interrupted code interleave, they never run
// concurrently).  Under that invariant program order alone keeps the flag
// coherent and relaxed accesses are correct; lock()/unlock() Check() the
// invariant's observable half (no re-entry, no unpaired unlock).
// LockFromInterrupt claims the flag with a CAS rather than a load+store pair
// so that even a cross-thread "interrupt" (as a simulated environment might
// deliver) cannot claim a node that is concurrently being claimed.
template <class Platform = StdPlatform>
class BasicMcsTryV1Lock {
 public:
  BasicMcsTryV1Lock() = default;
  BasicMcsTryV1Lock(const BasicMcsTryV1Lock&) = delete;
  BasicMcsTryV1Lock& operator=(const BasicMcsTryV1Lock&) = delete;

  void lock() {
    QNode& node = *nodes_[Platform::ThreadId()];
    Platform::Check(!node.in_use.load(std::memory_order_relaxed),
                    "McsTryV1Lock::lock re-entered while this thread's node is in "
                    "use; interrupt contexts must use LockFromInterrupt");
    node.in_use.store(true, std::memory_order_relaxed);  // common-path cost
    queue_.lock(node.q);
  }

  // Interrupt-safe acquire: fails only when this thread's node is already in
  // use, i.e. the caller interrupted its own lock/unlock code and waiting
  // could deadlock.  Otherwise enqueues and waits like lock().
  bool LockFromInterrupt() {
    QNode& node = *nodes_[Platform::ThreadId()];
    bool expected = false;
    if (!node.in_use.compare_exchange_strong(expected, true, std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
      return false;
    }
    queue_.lock(node.q);
    return true;
  }

  // Attaches a profiling site (null detaches); wait/hold samples are host
  // nanoseconds.  Not thread-safe against concurrent lock users.
  void set_site(hprof::LockSiteStats* site) { queue_.set_site(site); }

  void unlock() {
    QNode& node = *nodes_[Platform::ThreadId()];
    Platform::Check(node.in_use.load(std::memory_order_relaxed),
                    "McsTryV1Lock::unlock without a matching lock on this thread");
    queue_.unlock(node.q);
    // Release so a context that observes the node free also observes the
    // node's rest state restored (matters only if the observer is not this
    // thread; free for the in-order case).
    node.in_use.store(false, std::memory_order_release);  // common-path cost
  }

 private:
  struct QNode {
    typename BasicMcsLock<Platform>::QNode q;
    typename Platform::template Atomic<bool> in_use{false};
  };

  BasicMcsLock<Platform> queue_;
  Padded<QNode> nodes_[Platform::kMaxThreads];
};

// --- Variant 2 ----------------------------------------------------------------
//
// The abandoned-node protocol is algo::TimeoutMcsCore's (also the level lock
// of HMCS-T), run over the native backend.  lock() is an acquire with an
// infinite deadline.  try_lock() is an acquire with a zero budget: the
// deadline expires at the first check, so a caller with a predecessor
// abandons its node by CAS at once -- or, if the grant won that race, holds
// the lock after all.  The core returns a node handle per acquire; a
// per-thread slot keeps it until unlock().
template <class Platform = StdPlatform>
class BasicMcsTryV2Lock {
 public:
  BasicMcsTryV2Lock() = default;
  BasicMcsTryV2Lock(const BasicMcsTryV2Lock&) = delete;
  BasicMcsTryV2Lock& operator=(const BasicMcsTryV2Lock&) = delete;

  void lock() { Acquire(algo::kInfiniteBudget); }

  // True TryLock: a single attempt.  On failure the queue node is left in the
  // queue, marked abandoned, to be reclaimed by a later release.
  bool try_lock() { return Acquire(0); }

  void unlock() {
    Ctx ctx{Platform::ThreadId()};
    std::uint64_t& slot = holders_[ctx.id].value;
    const std::uint64_t node = slot;
    Platform::Check(node != 0, "McsTryV2Lock::unlock without a matching lock on this thread");
    slot = 0;
    core_.Release(ctx, node);
  }

  std::uint64_t abandoned_nodes_reclaimed() const { return core_.abandoned_nodes_reclaimed(); }

  // Pool conservation (quiescent observers, for tests): with the lock free
  // and no thread inside lock code, total_nodes() == pooled_nodes().
  std::uint64_t total_nodes() { return core_.total_nodes(); }
  std::uint64_t pooled_nodes() { return core_.pooled_nodes(); }

 private:
  using Backend = algo::NativeBackend<Platform>;
  using Ctx = typename Backend::Ctx;

  bool Acquire(std::uint64_t budget) {
    Ctx ctx{Platform::ThreadId()};
    typename Backend::Deadline deadline = backend_.MakeDeadline(ctx, budget);
    const typename algo::TimeoutMcsCore<Backend>::Grant grant = core_.Acquire(ctx, deadline);
    if (grant.node == 0) {
      return false;  // abandoned: a later release reclaims the node
    }
    holders_[ctx.id].value = grant.node;
    return true;
  }

  Backend backend_;
  algo::TimeoutMcsCore<Backend> core_{&backend_, /*home=*/0};
  // Per-thread slot remembering the node this thread acquired with; each slot
  // is touched only by its owning thread, so consecutive holders do not race.
  Padded<std::uint64_t> holders_[Platform::kMaxThreads] = {};
};

using McsTryV1Lock = BasicMcsTryV1Lock<>;
using McsTryV2Lock = BasicMcsTryV2Lock<>;

extern template class BasicMcsTryV1Lock<StdPlatform>;
extern template class BasicMcsTryV2Lock<StdPlatform>;

}  // namespace hlock

#endif  // HLOCK_MCS_TRY_LOCK_H_
