// Bounded intrusive MPSC queue -- the request inbox of one shard pump.
//
// hlock::IntrusiveMpscList (the Vyukov list the SoftIrqGate also uses) plus
// an admission counter that makes it *bounded*: producers claim a slot with
// a bounded CAS on the depth counter, so under overload they learn "full"
// in a couple of uncontended atomic ops instead of growing an unbounded
// backlog -- admission control rejects at the door, which is what keeps
// service latency bounded when offered load exceeds capacity (the
// queueing-collapse alternative is the whole reason hsvc exists).
//
// Admission contract:
//   - depth() counts admitted-but-not-yet-popped items, including items a
//     producer has claimed a slot for but is still linking in.  The
//     invariant depth() <= bound() holds in EVERY reachable state: a failed
//     TryPush never modifies the counter.
//   - TryPush returns false only when bound() items were genuinely admitted
//     and unpopped at the moment of its (failed) claim.  An earlier version
//     reserved with fetch_add and backed the failure out with fetch_sub;
//     between those two operations depth transiently exceeded the bound, so
//     a concurrent producer racing a concurrent Pop could be rejected while
//     the queue held fewer than bound() items ("phantom full" -- spurious
//     admission-control drops right at the knee of the load curve, exactly
//     where the open-loop benches measure).  The CAS claim closes that
//     window by construction; tests/hcheck/request_queue_hcheck_test.cc
//     model-checks that a quiescent non-full queue never rejects.
//   - The successful claim CAS is acq_rel (it pairs with other claims and
//     with Pop's release decrement); the reload on CAS failure is relaxed --
//     a failed attempt publishes nothing.  Pop's decrement is release, so
//     a producer whose claim reads the decremented count also observes the
//     consumer's detachment of the popped item.
//
// Nodes are caller-owned (type-stable request pools, the footnote-2
// discipline), with the list's requirements on T.  The Platform policy
// (default StdPlatform = std::atomic) exists so the admission protocol
// itself can run under the hcheck model checker.
//
// The depth counter lives on its own cache line via hlock::Padded, and the
// list keeps its producer head and consumer tail on lines of their own.

#ifndef HSVC_REQUEST_QUEUE_H_
#define HSVC_REQUEST_QUEUE_H_

#include <atomic>
#include <cstddef>

#include "src/hlock/mpsc_list.h"
#include "src/hlock/padded.h"
#include "src/hlock/platform.h"

namespace hsvc {

template <typename T, class Platform = hlock::StdPlatform>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t bound) : bound_(bound) {}
  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  // Any-thread.  Returns false (and leaves `item` untouched beyond its
  // mpsc_next) when the queue already holds `bound` admitted items.  See the
  // admission contract above: failure never perturbs the counter.
  bool TryPush(T* item) {
    std::size_t depth = depth_->load(std::memory_order_relaxed);
    do {
      if (depth >= bound_) {
        return false;
      }
    } while (!depth_->compare_exchange_weak(depth, depth + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed));
    item->mpsc_next.store(nullptr, std::memory_order_relaxed);
    list_.Push(item);
    return true;
  }

  // Consumer only.  Returns nullptr when empty -- or, rarely, when a producer
  // is mid-push; the item becomes visible at the next call, so pumps treat
  // nullptr as "nothing right now", never as a fence.
  T* Pop() {
    T* item = list_.Pop();
    if (item != nullptr) {
      // Release: a producer whose claim CAS reads this decrement also sees
      // the pop it paid for (the claim side is acq_rel).
      depth_->fetch_sub(1, std::memory_order_release);
    }
    return item;
  }

  // Occupancy as the admission counter sees it (includes items a producer is
  // still linking in).  Any-thread; advisory, but never exceeds bound().
  std::size_t depth() const { return depth_->load(std::memory_order_relaxed); }
  std::size_t bound() const { return bound_; }

 private:
  const std::size_t bound_;
  // Head and tail on lines of their own.  The list comes first, so the
  // producers' head shares its 128-byte line pair (the unit of adjacent-line
  // prefetch) with the read-only bound_, not with the consumer's tail.
  hlock::IntrusiveMpscList<T, Platform, hlock::kCacheLineSize> list_;
  hlock::Padded<typename Platform::template Atomic<std::size_t>> depth_{
      0};  // producers + consumer
};

}  // namespace hsvc

#endif  // HSVC_REQUEST_QUEUE_H_
