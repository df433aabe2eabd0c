// Software interrupt masking with a deferred-work queue (Section 3.2,
// adapted from Stodolsky et al.).
//
// HURRICANE's resolution to the TryLock problem: instead of letting RPC
// interrupt handlers gamble on TryLock, each processor keeps a flag that is
// set before acquiring any lock an interrupt handler might need.  A handler
// finding the flag set enqueues its work on a per-processor queue; the work
// runs when the flag clears.  The flag and queue are strictly local in the
// paper; here the owner thread manipulates the gate while any thread may post
// work (the cross-processor RPC analogue), so the queue is an
// IntrusiveMpscList (mpsc_list.h).
//
// Because deferred work is executed in arrival order when the gate opens,
// access to the processor is fair -- the property retry-based TryLock lacks.
//
// Templated on the Platform policy (src/hlock/platform.h); the unsuffixed
// alias binds StdPlatform and is explicitly instantiated in soft_irq_gate.cc.

#ifndef HLOCK_SOFT_IRQ_GATE_H_
#define HLOCK_SOFT_IRQ_GATE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/hlock/mpsc_list.h"
#include "src/hlock/platform.h"

namespace hlock {

template <class Platform = StdPlatform>
class BasicSoftIrqGate {
 public:
  BasicSoftIrqGate() = default;

  ~BasicSoftIrqGate() {
    // Drain remaining items without running them.
    while (WorkItem* item = queue_.Pop()) {
      delete item;
    }
  }

  BasicSoftIrqGate(const BasicSoftIrqGate&) = delete;
  BasicSoftIrqGate& operator=(const BasicSoftIrqGate&) = delete;

  // --- owner-thread operations -------------------------------------------------

  // Closes the gate (nestable).  Call before acquiring any lock a handler
  // could need.
  void Enter() { ++depth_; }

  // Opens one nesting level; when fully open, runs all deferred work.
  void Exit() {
    if (--depth_ == 0) {
      Drain();
    }
  }

  // Runs pending work if the gate is open.  The owner calls this at its
  // interrupt points (idle loops, spin loops).
  void Poll() {
    if (depth_ == 0) {
      Drain();
    }
  }

  bool closed() const { return depth_ > 0; }

  // RAII guard for a masked region.
  class Region {
   public:
    explicit Region(BasicSoftIrqGate& gate) : gate_(gate) { gate_.Enter(); }
    ~Region() { gate_.Exit(); }
    Region(const Region&) = delete;
    Region& operator=(const Region&) = delete;

   private:
    BasicSoftIrqGate& gate_;
  };

  // --- any-thread operations ----------------------------------------------------

  // Posts work.  If called by the owner with the gate open, consider calling
  // Poll() afterwards; otherwise the work runs at the owner's next Poll/Exit.
  void Post(std::function<void()> work) {
    queue_.Push(new WorkItem{std::move(work), {nullptr}});
  }

  // --- statistics -----------------------------------------------------------------
  std::uint64_t executed() const { return executed_; }

 private:
  struct WorkItem {
    std::function<void()> work;
    typename Platform::template Atomic<WorkItem*> mpsc_next{nullptr};
  };

  void Drain() {
    if (draining_) {
      return;  // a work item polled the gate; do not re-enter
    }
    draining_ = true;
    struct Reset {
      bool* flag;
      ~Reset() { *flag = false; }
    } reset{&draining_};
    while (WorkItem* item = queue_.Pop()) {
      item->work();
      ++executed_;
      delete item;
    }
  }

  IntrusiveMpscList<WorkItem, Platform> queue_;

  int depth_ = 0;          // owner-only
  bool draining_ = false;  // owner-only: prevents re-entrant drains
  std::uint64_t executed_ = 0;  // owner-only
};

using SoftIrqGate = BasicSoftIrqGate<>;

extern template class BasicSoftIrqGate<StdPlatform>;

}  // namespace hlock

#endif  // HLOCK_SOFT_IRQ_GATE_H_
