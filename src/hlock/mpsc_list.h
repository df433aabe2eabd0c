// Vyukov's intrusive MPSC list: any thread pushes, one consumer pops.
//
// Producers exchange the head and then link the previous head to the new
// node; the single consumer chases next pointers from its private tail
// through a stub node that keeps the list non-empty.  A push is wait-free
// (one exchange, one store); a pop never blocks, and returns nullptr while a
// producer sits between its exchange and its link -- that item becomes
// visible at a later Pop, so callers treat nullptr as "nothing right now",
// never as a fence.
//
// Nodes are caller-owned: the list never allocates or frees.  T must expose
// a `Platform::Atomic<T*> mpsc_next` member and be default-constructible
// (one private T serves as the stub; it is never handed out).  Push links a
// node whose `mpsc_next` the caller has already cleared.  Users: the hsvc
// shard inbox (BoundedMpscQueue adds an admission counter) and the
// SoftIrqGate deferred-work queue.
//
// kAlign aligns the producers' head and the consumer's tail.  The default
// packs the list into a line or two, which suits the SoftIrqGate: its owner
// polls an almost always empty list between requests, and each poll then
// reads one line.  hlock::kCacheLineSize gives head and tail lines of their
// own, which suits the hsvc inbox, pushed and popped concurrently at the
// full request rate.  (Measured on svc_read_mostly: the gate with a padded
// head cost about 7% capacity.)

#ifndef HLOCK_MPSC_LIST_H_
#define HLOCK_MPSC_LIST_H_

#include <atomic>
#include <cstddef>

#include "src/hlock/platform.h"

namespace hlock {

template <typename T, class Platform = StdPlatform, std::size_t kAlign = alignof(T*)>
class IntrusiveMpscList {
 public:
  IntrusiveMpscList() {
    head_.store(&stub_, std::memory_order_relaxed);
    tail_ = &stub_;
  }
  IntrusiveMpscList(const IntrusiveMpscList&) = delete;
  IntrusiveMpscList& operator=(const IntrusiveMpscList&) = delete;

  // Any thread.  `item->mpsc_next` must already be null.
  void Push(T* item) {
    T* prev = head_.exchange(item, std::memory_order_acq_rel);
    prev->mpsc_next.store(item, std::memory_order_release);
  }

  // Consumer only.  Returns the oldest linked item, or nullptr when the list
  // is empty or its next item is still being linked.
  T* Pop() {
    T* tail = tail_;
    T* next = tail->mpsc_next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (next == nullptr) {
        return nullptr;
      }
      tail_ = next;
      tail = next;
      next = next->mpsc_next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      tail_ = next;
      return tail;
    }
    T* head = head_.load(std::memory_order_acquire);
    if (tail != head) {
      return nullptr;  // producer mid-push; its item will be visible shortly
    }
    // `tail` is the last element: re-insert the stub behind it so the list is
    // never empty, then detach.
    stub_.mpsc_next.store(nullptr, std::memory_order_relaxed);
    Push(&stub_);
    next = tail->mpsc_next.load(std::memory_order_acquire);
    if (next != nullptr) {
      tail_ = next;
      return tail;
    }
    return nullptr;
  }

 private:
  alignas(kAlign) typename Platform::template Atomic<T*> head_;  // producers
  alignas(kAlign) T* tail_;                                      // consumer only
  T stub_;
};

}  // namespace hlock

#endif  // HLOCK_MPSC_LIST_H_
