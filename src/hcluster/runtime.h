// A native hierarchical-clustering runtime.
//
// Workers are threads standing in for HURRICANE's processors.  Each worker
// owns a SoftIrqGate inbox; cross-cluster operations are blocking calls that
// run a closure on the target worker.  Two rules are inherited directly from
// the kernel (Sections 2.3 and 3.2):
//
//   1. A worker waiting for its own call's reply keeps servicing its inbox --
//      the worker itself is a lockable resource, and two workers calling each
//      other would otherwise deadlock.
//   2. Handler code must never block on another worker (no nested Call) and
//      must use the no-spin ("Try") operations on reserved entries, failing
//      with would-deadlock so the initiator retries.

#ifndef HCLUSTER_RUNTIME_H_
#define HCLUSTER_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/hcluster/topology.h"
#include "src/hlock/soft_irq_gate.h"

namespace hcluster {

class ClusterRuntime {
 public:
  explicit ClusterRuntime(const Topology& topology);

  // Destruction is a drain, not an abandonment: every task and handler posted
  // before (or transitively by work posted before) the destructor runs to
  // completion first, workers keep servicing their inboxes throughout, and
  // only then do the threads exit and join.  Joining eagerly instead is the
  // classic shutdown deadlock: worker A blocked in Call(B) needs B to poll
  // its inbox, but B saw the stop flag and exited -- A never completes and
  // join(A) hangs.  Posting from outside the runtime once the destructor has
  // begun is a caller bug (in-flight workers may still post freely).
  ~ClusterRuntime();
  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  const Topology& topology() const { return topology_; }

  // The worker id of the calling thread, or kNotAWorker from outside.
  static constexpr WorkerId kNotAWorker = ~0u;
  WorkerId current_worker() const;

  // Fire-and-forget: run `fn` as a *process* on worker `w`.  Processes may
  // block in Call; they run from the worker loop, never from inside another
  // process or handler.
  void Post(WorkerId w, std::function<void()> fn);

  // Fire-and-forget handler dispatch: `fn` runs in handler context on `w`
  // (between and within that worker's blocking waits).  Handlers must not
  // block or Call.
  void PostHandler(WorkerId w, std::function<void()> fn);

  // Runs `fn` on worker `dst` and waits for its result.  Callable from any
  // thread; when called from a worker, the worker services its own inbox
  // while waiting.  `fn` runs in handler context: it must not Call.  A call
  // to the calling worker itself runs `fn` inline on the spot, ahead of any
  // handler already pending in the inbox: going through the inbox would only
  // have this same thread pick it up again, at the price of two closures, a
  // work item, a wake and a gate round trip.
  template <typename Fn>
  auto Call(WorkerId dst, Fn fn) -> decltype(fn()) {
    if (dst == current_worker()) {
      return fn();
    }
    using R = decltype(fn());
    struct Slot {
      std::atomic<bool> done{false};
      alignas(R) unsigned char storage[sizeof(R)];
    } slot;
    PostHandler(dst, [&slot, fn = std::move(fn)]() mutable {
      new (slot.storage) R(fn());
      slot.done.store(true, std::memory_order_release);
    });
    ServiceWhileWaiting(&slot.done);
    R* result = reinterpret_cast<R*>(slot.storage);
    R value = std::move(*result);
    result->~R();
    return value;
  }

  // Services the calling worker's handler inbox once.  Worker code that
  // busy-waits on anything other than Call (e.g. an entry reservation) must
  // keep calling this while it waits: the worker is itself a schedulable
  // resource, and going deaf while blocked recreates the paper's P1/P2
  // deadlock.  No-op from a non-worker thread.
  void ServiceInbox();

  // Idle support for long-running processes (e.g. a service shard pump) that
  // run their own polling loop on a worker.  Usage is an eventcount: snapshot
  // WakeEpoch(), poll your queues (and ServiceInbox()), and if nothing was
  // found call WaitForWork(epoch, ...) -- any Post/PostHandler to this worker
  // or Kick() of it after the snapshot advances the epoch, so the sleep
  // either falls through or is woken; a wakeup cannot be lost.  From a
  // non-worker thread WakeEpoch returns 0 and WaitForWork yields once.
  std::uint64_t WakeEpoch() const;
  void WaitForWork(std::uint64_t epoch, std::chrono::nanoseconds max_wait);

  // Wakes worker `w` if it is sleeping (idle loop or WaitForWork).  External
  // producers (service submit paths) call this after handing the worker's
  // process new work through a side channel the runtime cannot see.
  void Kick(WorkerId w);

  // Blocks until every posted task and handler (including work posted by
  // that work) has executed.  Call from outside the runtime only.
  void Quiesce();

 private:
  struct Worker {
    hlock::SoftIrqGate gate;  // handler (RPC) inbox
    std::mutex task_mutex;    // process queue
    std::vector<std::function<void()>> tasks;
    // Eventcount: producers bump wake_seq under wake_mutex before notifying,
    // the worker snapshots it before scanning its queues and sleeps only if
    // it is unchanged -- a post landing between scan and sleep always changes
    // the sequence, so the wakeup cannot be lost.
    std::mutex wake_mutex;
    std::condition_variable wake_cv;
    std::uint64_t wake_seq = 0;  // guarded by wake_mutex
    std::thread thread;
  };

  void WorkerLoop(WorkerId id);
  void ServiceWhileWaiting(std::atomic<bool>* done);
  void Wake(Worker& worker);

  Topology topology_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Conservation counters over *all* work (tasks and handlers): posted is
  // bumped before an item is enqueued, completed after it ran, so
  // posted == completed (completed read first) proves nothing is queued or
  // mid-execution anywhere -- the destructor's drain condition.
  std::atomic<std::uint64_t> work_posted_{0};
  std::atomic<std::uint64_t> work_completed_{0};
  std::atomic<bool> exit_{false};
};

}  // namespace hcluster

#endif  // HCLUSTER_RUNTIME_H_
