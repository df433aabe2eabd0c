// MCS queue lock with timeout (abandonable nodes), written once over the
// memory backend.  This is the building block of the hierarchical HMCS-T
// lock (algo/hmcs.h) and follows the pooled-node machinery of
// BasicMcsTryV2Lock (src/hlock/mcs_try_lock.h): a waiter that gives up
// cannot unlink itself from the middle of an MCS queue, so it marks its node
// abandoned and leaves; releasers garbage-collect abandoned nodes while
// handing the lock over (cf. Craig's timeout queue locks).
//
// Grant tokens: a releaser hands over one of two values -- kGranted ("you
// hold this lock; acquire the next level yourself") or kGrantedInherit ("you
// hold this lock AND inherit the enclosing level's ownership").  The token is
// what makes the hierarchical composition work: an intra-cluster handoff
// passes the global lock along without touching it.
//
// Nodes are pool-allocated because a thread can time out and re-acquire
// while its abandoned node still sits in the queue; nodes are freed by
// *other* threads (the releaser reclaims abandoned nodes), so the pool is
// guarded by the backend's WithPool lock, off the algorithm's fast path.
// Handles are opaque u64 node identities.
//
// Memory orders: tail swap acq_rel; predecessor link store release; state
// spin load acquire; state grant/abandon CAS acq_rel/acquire (the only
// arbiter between a timing-out waiter and its granter); tail-release CAS
// acq_rel/acquire; node re-initialization relaxed.

#ifndef HLOCK_ALGO_TIMEOUT_MCS_H_
#define HLOCK_ALGO_TIMEOUT_MCS_H_

#include <atomic>
#include <cstdint>

#include "src/hlock/algo/backend.h"

namespace hlock::algo {

template <class B>
class TimeoutMcsCore;

#define HLOCK_TWO_PASS_SOURCE "src/hlock/algo/timeout_mcs.h"
#include "src/hlock/algo/two_pass.h"

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_TIMEOUT_MCS_H_

#ifdef HLOCK_PASS
template <class B>
  requires HLOCK_PASS<B>
class TimeoutMcsCore<B> {
 public:
  using Ctx = typename B::Ctx;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  // Node states / grant tokens.
  static constexpr std::uint64_t kWaiting = 0;
  static constexpr std::uint64_t kGranted = 1;
  static constexpr std::uint64_t kAbandoned = 2;
  static constexpr std::uint64_t kGrantedInherit = 3;

  static constexpr std::uint64_t kNil = 0;

  // Acquire outcome: node == 0 means the deadline expired; otherwise `node`
  // is the handle to pass to Release*/TryPassLocal and `token` is the grant
  // token received (kGranted, or kGrantedInherit from an in-cluster pass).
  struct Grant {
    std::uint64_t node = 0;
    std::uint64_t token = 0;
    bool contended = false;  // true when the acquire had to queue behind someone
  };

  // `home` is the module holding the tail word; queue nodes are homed on the
  // module of the caller that first allocates them.  `broken_abandon` is a
  // deliberate bug switch for the model-checking tests: a timed-out waiter
  // walks away WITHOUT marking its node abandoned, orphaning it in the queue
  // (hcheck catches the resulting lost wakeup and pool leak).
  TimeoutMcsCore(B* b, std::uint32_t home, bool broken_abandon = false)
      : b_(b), broken_abandon_(broken_abandon) {
    b_->InitWord(tail_, home, kNil);
  }
  ~TimeoutMcsCore() {
    Node* node = all_nodes_;
    while (node != nullptr) {
      Node* next = node->all_next;
      delete node;
      node = next;
    }
  }
  TimeoutMcsCore(const TimeoutMcsCore&) = delete;
  TimeoutMcsCore& operator=(const TimeoutMcsCore&) = delete;

  // Acquires or times out against `deadline`.  An infinite deadline makes
  // this the plain (untimed) acquire.
  TaskT<Grant> Acquire(Ctx& ctx, typename B::Deadline& deadline) {
    Node* node = HLOCK_AWAIT AllocNode(ctx);
    const std::uint64_t pred_bits =
        HLOCK_AWAIT b_->FetchStore(ctx, tail_, Bits(node), std::memory_order_acq_rel);
    HLOCK_AWAIT b_->Exec(ctx, 1, 2);
    if (pred_bits == kNil) {
      HLOCK_RETURN Grant{Bits(node), kGranted, /*contended=*/false};
    }
    HLOCK_AWAIT b_->Store(ctx, FromBits(pred_bits)->next, Bits(node), std::memory_order_release);
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (true) {
      const std::uint64_t state = HLOCK_AWAIT b_->Load(ctx, node->state, std::memory_order_acquire);
      HLOCK_AWAIT b_->Exec(ctx, 0, 1);
      if (state != kWaiting) {
        HLOCK_RETURN Grant{Bits(node), state, /*contended=*/true};
      }
      if (b_->Expired(ctx, deadline)) {
        if (broken_abandon_) {
          // BUG (deliberate, for hcheck): leave without abandoning.  The node
          // stays kWaiting forever; a releaser will "grant" a departed
          // thread and the lock is lost.
          HLOCK_RETURN Grant{};
        }
        // Abandon.  If the predecessor granted us the lock in the window, the
        // CAS fails and we own the lock after all.
        const bool abandoned =
            HLOCK_AWAIT b_->CompareSwap(ctx, node->state, kWaiting, kAbandoned,
                                        std::memory_order_acq_rel, std::memory_order_acquire);
        HLOCK_AWAIT b_->Exec(ctx, 0, 1);
        if (abandoned) {
          // The node stays in the queue; a release will reclaim it.
          HLOCK_RETURN Grant{};
        }
        const std::uint64_t granted =
            HLOCK_AWAIT b_->Load(ctx, node->state, std::memory_order_acquire);
        HLOCK_RETURN Grant{Bits(node), granted, /*contended=*/true};
      }
      HLOCK_AWAIT b_->SpinPause(ctx, sw);
    }
  }

  // Hands the lock to the next *waiting* node with `token`, reclaiming any
  // abandoned nodes on the way.  Returns 0 when the lock was passed (the
  // caller's node is freed); otherwise no successor is visible, the caller
  // STILL HOLDS the lock, and the returned handle replaces its node (it may
  // differ from the input when abandoned nodes were adopted).  Never releases
  // the lock -- the fallback for "nobody to pass to" is the caller's choice.
  TaskT<std::uint64_t> TryPassLocal(Ctx& ctx, std::uint64_t node_bits, std::uint64_t token) {
    Node* node = FromBits(node_bits);
    while (true) {
      const std::uint64_t succ_bits =
          HLOCK_AWAIT b_->Load(ctx, node->next, std::memory_order_acquire);
      HLOCK_AWAIT b_->Exec(ctx, 0, 1);
      if (succ_bits == kNil) {
        HLOCK_RETURN Bits(node);
      }
      Node* succ = FromBits(succ_bits);
      const bool granted =
          HLOCK_AWAIT b_->CompareSwap(ctx, succ->state, kWaiting, token,
                                      std::memory_order_acq_rel, std::memory_order_acquire);
      HLOCK_AWAIT b_->Exec(ctx, 0, 1);
      if (granted) {
        FreeNode(node);
        HLOCK_RETURN kNil;
      }
      // Abandoned: reclaim it, adopt its queue position, keep walking.
      FreeNode(node);
      reclaimed_.fetch_add(1, std::memory_order_relaxed);
      node = succ;
    }
  }

  // Releases: grants the next waiting node `token`, or frees the lock if the
  // queue drains (abandoned nodes are reclaimed on the way).
  TaskT<void> ReleaseWithToken(Ctx& ctx, std::uint64_t node_bits, std::uint64_t token) {
    Node* node = FromBits(node_bits);
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (true) {
      std::uint64_t succ_bits = HLOCK_AWAIT b_->Load(ctx, node->next, std::memory_order_acquire);
      HLOCK_AWAIT b_->Exec(ctx, 0, 1);
      if (succ_bits == kNil) {
        const bool freed = HLOCK_AWAIT b_->CompareSwap(ctx, tail_, Bits(node), kNil,
                                                       std::memory_order_acq_rel,
                                                       std::memory_order_acquire);
        HLOCK_AWAIT b_->Exec(ctx, 0, 1);
        if (freed) {
          FreeNode(node);
          HLOCK_RETURN;
        }
        while (succ_bits == kNil) {
          succ_bits = HLOCK_AWAIT b_->Load(ctx, node->next, std::memory_order_acquire);
          HLOCK_AWAIT b_->Exec(ctx, 0, 1);
          if (succ_bits == kNil) {
            HLOCK_AWAIT b_->SpinPause(ctx, sw);
          }
        }
      }
      Node* succ = FromBits(succ_bits);
      const bool granted =
          HLOCK_AWAIT b_->CompareSwap(ctx, succ->state, kWaiting, token,
                                      std::memory_order_acq_rel, std::memory_order_acquire);
      HLOCK_AWAIT b_->Exec(ctx, 0, 1);
      FreeNode(node);
      if (granted) {
        HLOCK_RETURN;
      }
      reclaimed_.fetch_add(1, std::memory_order_relaxed);
      node = succ;  // abandoned: we own it now; continue with its successor
    }
  }

  TaskT<void> Release(Ctx& ctx, std::uint64_t node_bits) {
    return ReleaseWithToken(ctx, node_bits, kGranted);
  }

  std::uint64_t abandoned_nodes_reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  // --- pool conservation (quiescent observers, for tests) --------------------
  // With the lock free and no thread inside lock code, every node ever
  // allocated must sit in the free list exactly once: total_nodes() ==
  // pooled_nodes().  A leak (abandoned node never reclaimed) or a double free
  // (caught eagerly by FreeNode) breaks the equality.
  std::uint64_t total_nodes() {
    std::uint64_t n = 0;
    b_->WithPool([&] { n = total_nodes_; });
    return n;
  }
  std::uint64_t pooled_nodes() {
    std::uint64_t n = 0;
    b_->WithPool([&] {
      for (Node* node = free_list_; node != nullptr; node = node->pool_next) {
        ++n;
      }
    });
    return n;
  }

 private:
  struct Node {
    typename B::Word next;   // successor handle, or 0
    typename B::Word state;  // kWaiting / kGranted / kGrantedInherit / kAbandoned
    Node* pool_next = nullptr;  // free-list link; guarded by WithPool
    Node* all_next = nullptr;   // allocation chain, for the destructor
    bool in_pool = false;       // guarded by WithPool; catches double frees
  };

  static std::uint64_t Bits(Node* node) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(node));
  }
  static Node* FromBits(std::uint64_t bits) {
    return reinterpret_cast<Node*>(static_cast<std::uintptr_t>(bits));
  }

  TaskT<Node*> AllocNode(Ctx& ctx) {
    Node* node = nullptr;
    b_->WithPool([&] {
      if (free_list_ != nullptr) {
        node = free_list_;
        free_list_ = node->pool_next;
        node->pool_next = nullptr;
        node->in_pool = false;
      }
    });
    if (node != nullptr) {
      // Re-initialization is part of the acquire path (costed).
      HLOCK_AWAIT b_->Store(ctx, node->next, kNil, std::memory_order_relaxed);
      HLOCK_AWAIT b_->Store(ctx, node->state, kWaiting, std::memory_order_relaxed);
      HLOCK_RETURN node;
    }
    node = new Node;
    // Nodes are homed on the allocating caller's module; they migrate between
    // threads through the pool, so this is a first-touch heuristic.
    const std::uint32_t home = b_->HomeOf(b_->CtxId(ctx));
    b_->InitWord(node->next, home, kNil);
    b_->InitWord(node->state, home, kWaiting);
    b_->WithPool([&] {
      node->all_next = all_nodes_;
      all_nodes_ = node;
      ++total_nodes_;
    });
    HLOCK_RETURN node;
  }

  void FreeNode(Node* node) {
    // Nodes are type-stable: only ever reused as queue nodes of this lock.
    b_->WithPool([&] {
      B::Check(!node->in_pool, "TimeoutMcsCore: queue node freed twice");
      node->in_pool = true;
      node->pool_next = free_list_;
      free_list_ = node;
    });
  }

  B* b_;
  bool broken_abandon_;
  typename B::Word tail_;
  std::atomic<std::uint64_t> reclaimed_{0};
  // Node pool; all three guarded by the backend's WithPool lock.
  Node* free_list_ = nullptr;
  Node* all_nodes_ = nullptr;
  std::uint64_t total_nodes_ = 0;
};
#endif  // HLOCK_PASS
