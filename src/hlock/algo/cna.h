// CNA (Compact NUMA-Aware) lock, written once over the memory backend.
//
// CNA is an MCS queue lock whose releaser prefers a same-cluster successor:
// on release it scans the main queue for the first waiter on its own cluster,
// detaches the remote waiters it skipped into a *secondary* queue, and hands
// the lock over locally.  The secondary queue is spliced back (ahead of or
// into the main queue) when no local waiter exists or when a starvation
// bound -- kMaxStreak consecutive local handoffs -- is reached, so remote
// waiters are delayed but never starved (Dice & Kogan, EuroSys '19).
//
// The structure deliberately mirrors McsCore: one queue node per caller,
// links as caller id + 1 (0 = nil), waiters spinning on their own node's
// locked flag.  The CNA-specific state (sec_head_/sec_tail_/streak_) is
// touched only by the current lock holder, so those words need no atomicity
// beyond the grant chain: the release store that passes the lock publishes
// them to the next holder.
//
// Invariants:
//   - sec_tail's next link is always nil: a detached prefix's last node has
//     its stale next cleared *at detach time*, before the prefix becomes
//     reachable as secondary state.  This is what makes the main-queue splice
//     (CAS tail_ me -> sec_tail) safe against concurrent enqueuers: a new
//     waiter that swaps itself behind sec_tail writes a link nobody
//     overwrites afterwards.
//   - the lock is never freed (tail_ -> nil) while the secondary queue is
//     nonempty; a drained main queue with secondary waiters promotes the
//     secondary queue to main instead.
//   - the scan only dereferences next links that were observed non-nil, and
//     stops at the first nil link: nodes moved to the secondary queue are
//     therefore never the main-queue tail.
//
// Memory orders: tail swap acq_rel; predecessor link store release; grant
// store release; spin load acquire; scan-next loads acquire; holder-only
// secondary/streak state relaxed (published by the grant).

#ifndef HLOCK_ALGO_CNA_H_
#define HLOCK_ALGO_CNA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/hlock/algo/backend.h"
#include "src/hlock/padded.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

template <class B>
class CnaCore;

#define HLOCK_TWO_PASS_SOURCE "src/hlock/algo/cna.h"
#include "src/hlock/algo/two_pass.h"

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_CNA_H_

#ifdef HLOCK_PASS
template <class B>
  requires HLOCK_PASS<B>
class CnaCore<B> {
 public:
  using Ctx = typename B::Ctx;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  static constexpr std::uint64_t kNil = 0;
  // Local handoffs in a row before the secondary queue is force-flushed.
  static constexpr std::uint64_t kDefaultMaxStreak = 64;

  // `home` is the module holding the lock words; queue nodes live on their
  // caller's module.  `broken_splice` is a deliberate bug switch for the
  // model-checking tests: a drained main queue *frees* the lock word and only
  // then grants the secondary head, so a fresh enqueuer can swap itself onto
  // the nil tail and hold the lock concurrently (hcheck catches the mutual
  // exclusion violation).
  CnaCore(B* b, std::uint32_t home, std::uint64_t max_streak = kDefaultMaxStreak,
          bool broken_splice = false)
      : b_(b), max_streak_(max_streak), broken_splice_(broken_splice), name_("cna") {
    const std::uint32_t n = b_->NumCtxs();
    nodes_ = std::make_unique<Node[]>(n);
    b_->InitWord(tail_, home, kNil);
    b_->InitWord(sec_head_, home, kNil);
    b_->InitWord(sec_tail_, home, kNil);
    b_->InitWord(streak_, home, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      b_->InitWord(nodes_[i].next, b_->HomeOf(i), kNil);
      b_->InitWord(nodes_[i].locked, b_->HomeOf(i), 1);
    }
  }
  CnaCore(const CnaCore&) = delete;
  CnaCore& operator=(const CnaCore&) = delete;

  // The acquire is plain MCS (the NUMA awareness is all in the release):
  // nodes keep the H1 rest state (next == nil, locked == 1), re-established
  // by whoever disturbs it.
  TaskT<void> Acquire(Ctx& ctx) {
    const std::uint64_t me = b_->CtxId(ctx) + 1;
    Node& node = nodes_[me - 1];
    typename B::Span span = b_->AcquireSpan(ctx, name_);
    hprof::SiteProbe::Wait wait = probe_.Begin(ProbeCaller(b_, ctx));

    const std::uint64_t pred =
        HLOCK_AWAIT b_->FetchStore(ctx, tail_, me, std::memory_order_acq_rel);
    HLOCK_AWAIT b_->Exec(ctx, 1, 2);
    if (pred == kNil) {
      probe_.Grant(wait, ProbeCaller(b_, ctx));
      b_->EndSpan(ctx, span);
      HLOCK_RETURN;
    }

    probe_.Contend(wait, ProbeCaller(b_, ctx));
    HLOCK_AWAIT b_->Store(ctx, nodes_[pred - 1].next, me, std::memory_order_release);
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (true) {
      const std::uint64_t locked =
          HLOCK_AWAIT b_->Load(ctx, node.locked, std::memory_order_acquire);
      HLOCK_AWAIT b_->Exec(ctx, 0, 1);
      if (locked == 0) {
        break;
      }
      HLOCK_AWAIT b_->SpinPause(ctx, sw);
    }
    // Rest-state re-init, absorbed by the write buffer (nobody reads our
    // locked flag until our next contended acquire).
    b_->PostStore(ctx, node.locked, 1);
    probe_.Grant(wait, ProbeCaller(b_, ctx));
    b_->EndSpan(ctx, span);
  }

  TaskT<void> Release(Ctx& ctx) {
    const std::uint64_t me = b_->CtxId(ctx) + 1;
    Node& node = nodes_[me - 1];
    probe_.Release(ProbeCaller(b_, ctx));
    b_->ReleaseInstant(ctx, name_);

    std::uint64_t succ = HLOCK_AWAIT b_->Load(ctx, node.next, std::memory_order_acquire);
    HLOCK_AWAIT b_->Exec(ctx, 0, 1);
    // Holder-only state: relaxed, published to the next holder by the grant.
    const std::uint64_t sec_head = HLOCK_AWAIT b_->Load(ctx, sec_head_, std::memory_order_relaxed);
    HLOCK_AWAIT b_->Exec(ctx, 0, 1);

    if (succ == kNil) {
      if (sec_head == kNil) {
        // Nobody anywhere: free the lock if we are still the tail.
        const bool freed = HLOCK_AWAIT b_->CompareSwap(ctx, tail_, me, kNil,
                                                       std::memory_order_acq_rel,
                                                       std::memory_order_acquire);
        HLOCK_AWAIT b_->Exec(ctx, 0, 1);
        if (freed) {
          HLOCK_RETURN;  // node.next is already nil: rest state holds
        }
      } else if (broken_splice_) {
        // BUG (deliberate, for hcheck): free the lock word, then grant the
        // secondary head.  In the window between the two, a fresh enqueuer
        // swaps itself onto the nil tail and believes it holds the lock --
        // two holders at once.
        const bool freed = HLOCK_AWAIT b_->CompareSwap(ctx, tail_, me, kNil,
                                                       std::memory_order_acq_rel,
                                                       std::memory_order_acquire);
        HLOCK_AWAIT b_->Exec(ctx, 0, 1);
        if (freed) {
          HLOCK_AWAIT ClearSecondary(ctx, /*streak=*/0);
          HLOCK_AWAIT Grant(ctx, sec_head);
          HLOCK_RETURN;
        }
      } else {
        // Main queue drained but remote waiters are parked: promote the
        // secondary queue to main.  sec_tail's next link is nil (invariant),
        // so a concurrent enqueuer behind it links cleanly.
        const std::uint64_t sec_tail =
            HLOCK_AWAIT b_->Load(ctx, sec_tail_, std::memory_order_relaxed);
        const bool spliced = HLOCK_AWAIT b_->CompareSwap(ctx, tail_, me, sec_tail,
                                                         std::memory_order_acq_rel,
                                                         std::memory_order_acquire);
        HLOCK_AWAIT b_->Exec(ctx, 0, 1);
        if (spliced) {
          HLOCK_AWAIT ClearSecondary(ctx, /*streak=*/0);
          HLOCK_AWAIT Grant(ctx, sec_head);
          HLOCK_RETURN;
        }
      }
      // The tail CAS failed: someone is enqueueing behind us; wait for the
      // link to appear.
      typename B::SpinWait sw = b_->MakeSpinWait();
      while (succ == kNil) {
        succ = HLOCK_AWAIT b_->Load(ctx, node.next, std::memory_order_acquire);
        HLOCK_AWAIT b_->Exec(ctx, 0, 1);
        if (succ == kNil) {
          HLOCK_AWAIT b_->SpinPause(ctx, sw);
        }
      }
    }

    b_->PostStore(ctx, node.next, kNil);  // rest-state re-init (buffered)

    const std::uint64_t streak = HLOCK_AWAIT b_->Load(ctx, streak_, std::memory_order_relaxed);
    HLOCK_AWAIT b_->Exec(ctx, 1, 1);
    if (sec_head != kNil && streak + 1 >= max_streak_) {
      // Starvation bound hit: the parked remote waiters run first.  Append
      // the main queue after the secondary one and grant its head.
      const std::uint64_t sec_tail =
          HLOCK_AWAIT b_->Load(ctx, sec_tail_, std::memory_order_relaxed);
      HLOCK_AWAIT b_->Store(ctx, nodes_[sec_tail - 1].next, succ, std::memory_order_release);
      HLOCK_AWAIT ClearSecondary(ctx, /*streak=*/0);
      HLOCK_AWAIT Grant(ctx, sec_head);
      HLOCK_RETURN;
    }

    // Scan the main queue for the first same-cluster waiter.  Only links
    // observed non-nil are crossed, so the scan never passes the tail.
    const std::uint32_t my_cluster = b_->ClusterOfCtx(me - 1);
    std::uint64_t cur = succ;
    std::uint64_t prev = kNil;
    bool found_local = b_->ClusterOfCtx(cur - 1) == my_cluster;
    HLOCK_AWAIT b_->Exec(ctx, 1, 1);
    while (!found_local) {
      const std::uint64_t nxt =
          HLOCK_AWAIT b_->Load(ctx, nodes_[cur - 1].next, std::memory_order_acquire);
      HLOCK_AWAIT b_->Exec(ctx, 1, 2);
      if (nxt == kNil) {
        break;  // cur may be the tail; it cannot be detached
      }
      prev = cur;
      cur = nxt;
      found_local = b_->ClusterOfCtx(cur - 1) == my_cluster;
    }

    if (found_local) {
      if (cur != succ) {
        // Detach the skipped remote prefix [succ..prev] into the secondary
        // queue.  Clearing prev's stale next *now* -- before the prefix is
        // published as secondary state -- upholds the sec_tail invariant.
        HLOCK_AWAIT b_->Store(ctx, nodes_[prev - 1].next, kNil, std::memory_order_relaxed);
        HLOCK_AWAIT AppendSecondary(ctx, sec_head, succ, prev);
      }
      HLOCK_AWAIT b_->Store(ctx, streak_, streak + 1, std::memory_order_relaxed);
      HLOCK_AWAIT Grant(ctx, cur);
      HLOCK_RETURN;
    }

    // No local waiter in the stable part of the queue: hand over remotely.
    // Run the (older) parked remote waiters first when there are any.
    if (sec_head != kNil) {
      const std::uint64_t sec_tail =
          HLOCK_AWAIT b_->Load(ctx, sec_tail_, std::memory_order_relaxed);
      HLOCK_AWAIT b_->Store(ctx, nodes_[sec_tail - 1].next, succ, std::memory_order_release);
      HLOCK_AWAIT ClearSecondary(ctx, /*streak=*/0);
      HLOCK_AWAIT Grant(ctx, sec_head);
      HLOCK_RETURN;
    }
    HLOCK_AWAIT b_->Store(ctx, streak_, 0, std::memory_order_relaxed);
    HLOCK_AWAIT Grant(ctx, succ);
  }

  TaskT<bool> TryAcquire(Ctx& ctx) {
    const std::uint64_t me = b_->CtxId(ctx) + 1;
    // The lock is never free with parked secondary waiters, so grabbing a nil
    // tail cannot overtake them.
    const bool taken = HLOCK_AWAIT b_->CompareSwap(ctx, tail_, kNil, me,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire);
    if (taken) {
      probe_.GrantAtOnce(ProbeCaller(b_, ctx));
    }
    HLOCK_RETURN taken;
  }

  std::uint64_t max_streak() const { return max_streak_; }
  const std::string& name() const { return name_; }

  // Test-only relaxed peek at a queue link, for constructing targeted
  // model-checking schedules (the hcheck tests gate on queue shape before
  // releasing the race under test).  Never used by the algorithm itself.
  TaskT<std::uint64_t> DebugLoadNext(Ctx& ctx, std::uint32_t id) {
    HLOCK_RETURN HLOCK_AWAIT b_->Load(ctx, nodes_[id].next, std::memory_order_relaxed);
  }

  // Attaches a profiling site (null detaches); recording is host-side only,
  // so a profiled run is operation-identical to an unprofiled one.
  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }
  hprof::LockSiteStats* site() const { return probe_.site(); }

 private:
  struct alignas(kCacheLineSize) Node {
    typename B::Word next;    // successor's caller id + 1, or 0 (nil)
    typename B::Word locked;  // 1 while the owner must wait
  };

  TaskT<void> Grant(Ctx& ctx, std::uint64_t who) {
    HLOCK_AWAIT b_->Store(ctx, nodes_[who - 1].locked, 0, std::memory_order_release);
    HLOCK_AWAIT b_->Exec(ctx, 1, 1);
  }

  TaskT<void> ClearSecondary(Ctx& ctx, std::uint64_t streak) {
    HLOCK_AWAIT b_->Store(ctx, sec_head_, kNil, std::memory_order_relaxed);
    HLOCK_AWAIT b_->Store(ctx, sec_tail_, kNil, std::memory_order_relaxed);
    HLOCK_AWAIT b_->Store(ctx, streak_, streak, std::memory_order_relaxed);
  }

  // Appends the detached chain [first..last] to the secondary queue.  last's
  // next link is already nil (cleared at detach).
  TaskT<void> AppendSecondary(Ctx& ctx, std::uint64_t sec_head, std::uint64_t first,
                              std::uint64_t last) {
    if (sec_head == kNil) {
      HLOCK_AWAIT b_->Store(ctx, sec_head_, first, std::memory_order_relaxed);
    } else {
      const std::uint64_t sec_tail =
          HLOCK_AWAIT b_->Load(ctx, sec_tail_, std::memory_order_relaxed);
      HLOCK_AWAIT b_->Store(ctx, nodes_[sec_tail - 1].next, first, std::memory_order_relaxed);
    }
    HLOCK_AWAIT b_->Store(ctx, sec_tail_, last, std::memory_order_relaxed);
    HLOCK_AWAIT b_->Exec(ctx, 1, 1);
  }

  B* b_;
  std::uint64_t max_streak_;
  bool broken_splice_;
  std::string name_;
  typename B::Word tail_;      // caller id + 1 of the main-queue tail, or 0
  typename B::Word sec_head_;  // holder-only: parked remote chain head, or 0
  typename B::Word sec_tail_;  // holder-only: parked remote chain tail, or 0
  typename B::Word streak_;    // holder-only: consecutive local handoffs
  std::unique_ptr<Node[]> nodes_;
  hprof::SiteProbe probe_;
};
#endif  // HLOCK_PASS
