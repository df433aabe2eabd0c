// Lock-free leaf structures (Section 5.3).
//
// The authors planned to use "lock-free data structures for simple leaf
// locks, particularly for data structures that are required by interrupt
// handlers and if the data to be modified is contained in a single word".
// These are the two shapes that sentence describes:
//
//   LockFreeCounter -- a single-word statistic safely updated from handler
//   context (no lock to deadlock on).
//
//   LockFreeFreeList -- a Treiber stack over type-stable nodes with a
//   one-word tagged head.  It is safe against ABA *only because* the nodes
//   come from a type-stable pool that is never returned to the allocator
//   while the list is in use -- the same footnote-2 discipline the reserve
//   bits rely on -- and the head's 16-bit tag narrows the remaining window
//   (see the class comment).
//
// Templated on the Platform policy (src/hlock/platform.h); the unsuffixed
// aliases bind StdPlatform.

#ifndef HLOCK_LOCK_FREE_H_
#define HLOCK_LOCK_FREE_H_

#include <atomic>
#include <cstdint>

#include "src/hlock/platform.h"

namespace hlock {

template <class Platform = StdPlatform>
class BasicLockFreeCounter {
 public:
  void Add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t Read() const { return value_.load(std::memory_order_relaxed); }

  // Single-word compare-and-swap update, the paper's "changes performed as a
  // series of atomic operations on single words" pattern.
  //
  // Contract (pinned; tests/hlock/lock_free_contract_test.cc guards it):
  //   - Returns the value the counter held immediately BEFORE fn was applied
  //     -- fetch_add-style, so `Update(f) == old` and the counter now holds
  //     `f(old)`.  Callers branch on the pre-update value (e.g. "was this
  //     the transition past the threshold?"); returning the new value would
  //     silently shift every such test by one step.
  //   - fn may be called multiple times (once per CAS attempt) and must be
  //     a pure function of its argument.
  //   - The successful CAS is acq_rel: it synchronizes with other successful
  //     updates of this counter, so read-modify-write chains across threads
  //     are ordered.  The failure order is relaxed -- a failed attempt only
  //     feeds the retry's fn and publishes nothing.
  template <typename Fn>
  std::int64_t Update(Fn fn) {
    std::int64_t current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, fn(current), std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
    }
    return current;
  }

 private:
  typename Platform::template Atomic<std::int64_t> value_{0};
};

// Intrusive node for BasicLockFreeFreeList.
template <class Platform = StdPlatform>
struct BasicLockFreeNode {
  typename Platform::template Atomic<BasicLockFreeNode*> next{nullptr};
};

template <class Platform = StdPlatform>
class BasicLockFreeFreeList {
 public:
  using Node = BasicLockFreeNode<Platform>;

  // The head is one 64-bit word: the node pointer in the low 48 bits (every
  // user-space address on x86-64 and on aarch64 with 48-bit virtual
  // addresses) and a 16-bit ABA tag above it, bumped by every successful
  // Push and Pop.  A single-word CAS is lock-free on every 64-bit target, so
  // the completion path never falls back to libatomic's hidden mutex.
  //
  // ABA window: a Pop that reads head (node A, tag t) and then stalls can
  // still succeed wrongly if, before its CAS, other threads pop A, run
  // exactly a multiple of 65536 head updates and push A back -- the tag has
  // wrapped to t and the stale `next` is installed.  Under concurrent
  // poppers that is unlikely, not impossible.  Every in-repo consumer (hsvc
  // clients, hload, perfbench) pops its list from a single thread while any
  // number of pumps push, and with one popper ABA cannot happen at all:
  // nobody else can take A off the list between the popper's read and its
  // CAS, and a Push only ever links the current head beneath the new node.
  static constexpr int kTagShift = 48;
  static constexpr std::uint64_t kNodeMask = (std::uint64_t{1} << kTagShift) - 1;

  void Push(Node* node) {
    const auto bits = reinterpret_cast<std::uintptr_t>(node);
    Platform::Check((bits & ~kNodeMask) == 0,
                    "LockFreeFreeList: node address does not fit the 48-bit head field");
    std::uint64_t expected = head_.load(std::memory_order_relaxed);
    std::uint64_t desired;
    do {
      node->next.store(NodeOf(expected), std::memory_order_relaxed);
      desired = Pack(bits, expected);
    } while (!head_.compare_exchange_weak(expected, desired, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  Node* Pop() {
    std::uint64_t expected = head_.load(std::memory_order_acquire);
    while (Node* node = NodeOf(expected)) {
      // Reading node->next is safe: nodes are type-stable (never freed to the
      // allocator while the list lives), so the worst case is a stale value
      // that the tagged CAS rejects.
      Node* next = node->next.load(std::memory_order_relaxed);
      if (head_.compare_exchange_weak(expected,
                                      Pack(reinterpret_cast<std::uintptr_t>(next), expected),
                                      std::memory_order_acq_rel, std::memory_order_acquire)) {
        return node;
      }
    }
    return nullptr;
  }

  bool empty() const { return NodeOf(head_.load(std::memory_order_acquire)) == nullptr; }

  // The head's ABA tag: advances by one (mod 2^16) on every Push and Pop.
  std::uint16_t tag() const {
    return static_cast<std::uint16_t>(head_.load(std::memory_order_relaxed) >> kTagShift);
  }

  // --- lock-freedom introspection -------------------------------------------
  // True wherever a 64-bit atomic is (every 64-bit target this builds for),
  // and exported by hsvc::Service as the svc.freelist_lock_free gauge.
  // Model-checker platforms substitute their own Atomic without the
  // std::atomic introspection surface; there the implementation is the
  // checker's simulated memory (no hidden mutex), reported as lock-free.
  static constexpr bool kHeadIsAlwaysLockFree = [] {
    if constexpr (requires {
                    Platform::template Atomic<std::uint64_t>::is_always_lock_free;
                  }) {
      return Platform::template Atomic<std::uint64_t>::is_always_lock_free;
    } else {
      return true;
    }
  }();

 private:
  static Node* NodeOf(std::uint64_t head) {
    return reinterpret_cast<Node*>(static_cast<std::uintptr_t>(head & kNodeMask));
  }
  // `node` under the tag of `prev` plus one; the shift drops the carry out
  // of bit 63, so the tag wraps mod 2^16.
  static std::uint64_t Pack(std::uintptr_t node, std::uint64_t prev) {
    return node | (((prev >> kTagShift) + 1) << kTagShift);
  }

  typename Platform::template Atomic<std::uint64_t> head_{0};
};

using LockFreeCounter = BasicLockFreeCounter<>;
using LockFreeNode = BasicLockFreeNode<>;
using LockFreeFreeList = BasicLockFreeFreeList<>;

}  // namespace hlock

#endif  // HLOCK_LOCK_FREE_H_
