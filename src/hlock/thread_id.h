// Dense thread identifiers.
//
// The paper's Distributed Locks pre-allocate one queue node per processor per
// lock.  The native analogue indexes per-lock node arrays with a small dense
// id assigned to each thread on first use.
//
// Ids are recycled: a thread releases its id back to a free list when it
// exits, so processes that churn through short-lived threads (thread pools,
// benchmark harnesses) stay within the bound.  The bound is on *concurrently
// live* threads that have touched a lock; exceeding it aborts the process
// with a diagnostic.  The previous behavior — silently wrapping the id with
// `% kMaxThreads` — handed two live threads the same per-lock queue node,
// which corrupts any MCS-style queue they both enqueue on.
//
// Recycling is safe because a thread cannot exit while it holds or waits on
// a lock, and every hlock primitive restores its per-thread node to the rest
// state before returning, so an id is only ever reused with its nodes
// quiescent.
//
// ThreadIdHighWater() is the number of distinct ids ever issued: every id a
// thread holds now, or held before, is below it.  It only grows, and a
// recycled id does not raise it.  Per-id (or per-cluster-of-ids) structures
// stay sized by kMaxThreads, but a scan over them that only needs the slots
// some thread can have touched -- the distributed RW lock's writer sweep --
// stops at the high-water.  It is published with a seq_cst store when a
// fresh id is issued, before the thread can use that id, so a seq_cst
// scanner that reads the high-water after its own seq_cst store either
// covers the new id or is ordered before everything the new thread does with
// it (DESIGN.md, "Distributed RW lock").

#ifndef HLOCK_THREAD_ID_H_
#define HLOCK_THREAD_ID_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace hlock {

// The maximum number of threads that may concurrently hold a dense id, i.e.
// be live after having touched any per-thread lock structure.
inline constexpr std::uint32_t kMaxThreads = 256;

namespace internal {

class ThreadIdSlot {
 public:
  ThreadIdSlot() {
    std::lock_guard<std::mutex> guard(Mu());
    std::vector<std::uint32_t>& freed = FreeIds();
    if (!freed.empty()) {
      id_ = freed.back();
      freed.pop_back();
      return;
    }
    id_ = NextId()++;
    HighWater().store(NextId(), std::memory_order_seq_cst);
    if (id_ >= kMaxThreads) {
      std::fprintf(stderr,
                   "hlock: more than %u concurrently live threads are using "
                   "per-thread lock structures; raise hlock::kMaxThreads or "
                   "reduce thread concurrency (ids are recycled only when a "
                   "thread exits)\n",
                   kMaxThreads);
      std::abort();
    }
  }

  ~ThreadIdSlot() {
    std::lock_guard<std::mutex> guard(Mu());
    FreeIds().push_back(id_);
  }

  ThreadIdSlot(const ThreadIdSlot&) = delete;
  ThreadIdSlot& operator=(const ThreadIdSlot&) = delete;

  std::uint32_t id() const { return id_; }

  static std::atomic<std::uint32_t>& HighWater() {
    static std::atomic<std::uint32_t> high_water{0};
    return high_water;
  }

 private:
  // Intentionally leaked: thread_local destructors of late-exiting threads
  // run during shutdown and must not touch destroyed statics.
  static std::mutex& Mu() {
    static std::mutex* mu = new std::mutex;
    return *mu;
  }
  static std::vector<std::uint32_t>& FreeIds() {
    static std::vector<std::uint32_t>* freed = new std::vector<std::uint32_t>;
    return *freed;
  }
  static std::uint32_t& NextId() {
    static std::uint32_t next = 0;
    return next;
  }

  std::uint32_t id_;
};

}  // namespace internal

inline std::uint32_t CurrentThreadId() {
  thread_local const internal::ThreadIdSlot slot;
  return slot.id();
}

// The number of dense ids issued so far (see the header comment).
inline std::uint32_t ThreadIdHighWater() {
  return internal::ThreadIdSlot::HighWater().load(std::memory_order_seq_cst);
}

}  // namespace hlock

#endif  // HLOCK_THREAD_ID_H_
