// The memory-backend concept: one lock algorithm, three memories.
//
// Every lock algorithm in src/hlock/algo/ is written exactly once, as a
// coroutine over an abstract *memory backend* B.  A backend supplies the
// pieces that the native Platform policy (src/hlock/platform.h) and the
// HECTOR simulator's Processor API (src/hsim/machine.h) both provide, just
// with different spellings and costs:
//
//   typename B::Ctx       per-caller execution context (a thread id slot
//                         natively, a simulated Processor in hsim)
//   typename B::Word      one backend-owned 64-bit location.  Words are
//                         default-constructible and placed with
//                         b.InitWord(word, home_module, init) -- placement is
//                         what gives a word a NUMA home in the simulator and
//                         is a no-op natively.
//   typename B::SpinWait  per-acquisition local-spin pacing state (a
//                         Platform::Backoff natively, nothing in hsim where
//                         the pause is a fixed costed delay)
//   typename B::Deadline  an acquire budget: an absolute simulated-time
//                         deadline in hsim, a decrementing iteration budget
//                         natively (deterministic under hcheck -- wall-clock
//                         deadlines would break schedule replay)
//   template <class T> using TaskT
//                         the coroutine task type the algorithm bodies
//                         return: hsim::Task<T> (lazy, costed co_awaits) in
//                         the simulator, SyncTask<T> (below; every await is
//                         immediately ready) natively and under hcheck.  Both
//                         take their frames from the per-thread FrameCache
//                         (frame_cache.h), not from operator new per call.
//
// Operations (all carry std::memory_order parameters; the native backend
// honours them, the simulator -- a sequentially consistent machine with an
// explicit write buffer -- ignores them):
//
//   TaskT<u64>  Load(ctx, word, mo)
//   TaskT<void> Store(ctx, word, v, mo)
//   void        PostStore(ctx, word, v)       write-buffered store: the
//               simulator posts it (non-blocking, local module only), the
//               native backend issues a relaxed store
//   TaskT<u64>  FetchStore(ctx, word, v, mo)  atomic swap -- HECTOR's only RMW
//   TaskT<bool> CompareSwap(ctx, word, expected, desired, ok_mo, fail_mo)
//               CAS; not available on real HECTOR hardware, costed like one
//               atomic in the simulator (comparison-point rationale in
//               machine.h).  The beyond-the-paper locks (CNA, HMCS-T,
//               Fissile) assume CAS hardware.
//   Exec, SpinPause and BackoffUnits return aw<void>: any awaitable of void,
//   not necessarily a TaskT, which every call site awaits at once --
//   Ready<void> natively, the engine's WaitAwaiter (a plain delay that
//   allocates no frame) in hsim.
//
//   aw<void> Exec(ctx, registers, branches)
//               charge register/branch instructions (simulator only; free
//               natively) -- this is what makes fig4 instruction counts
//               reproduce through the shared layer
//   aw<void> SpinPause(ctx, spin_wait)     one pacing step of a local spin
//               loop (fixed 16-tick delay in hsim; Platform::Backoff::Pause,
//               i.e. exactly one hcheck schedule point, natively)
//   aw<void> BackoffUnits(ctx, units, at_cap)   an *explicit* backoff delay in
//               backend time units, used only by algorithms whose backoff is
//               part of the algorithm itself (Figure 3c's doubling delay)
//
// Topology and identity (host-side, free):
//
//   u32  CtxId(ctx)            dense caller id, < NumCtxs()
//   u32  NumCtxs()             queue-node array sizing
//   u32  ClusterOfCtx(id)      cluster (HECTOR station) of a caller
//   u32  NumClusters()
//   u32  HomeOf(id)            memory module local to a caller (for InitWord)
//   u64  Now(ctx)              ticks (simulated time / host ns); free
//   u64  RandomBelow(ctx, n)   jitter source (deterministic midpoint natively)
//   Deadline MakeDeadline(ctx, budget), bool Expired(ctx, deadline)
//   void Check(cond, msg)      algorithm invariant check (FailCheck under
//                              hcheck, abort in the simulator)
//   WithPool(f)                runs f under the backend's node-pool guard
//   AcquireSpan/EndSpan/ReleaseInstant   lock trace hooks (simulator only)
//
// Two things every core shares are written once beside them.  Profiling:
// a core reports to its hprof site only through an hprof::SiteProbe, the one
// place the recording rule (wait from the first attempt, one enqueue per
// contended episode, hold from grant to release) lives; ProbeCaller below is
// how a core hands the probe its clock and identity.  The CAS word lock
// (word_lock.h): LockWord/UnlockWord and its doubling PollBackoff are the
// halloc locks and the drw writer mutex.
//
// Each memory has one lock adapter: hlock::NativeLock<Core, Platform>
// (native_lock.h) runs any core eagerly, natively and under hcheck;
// hsim::SimLockOf<Core> (src/hsim/locks/sim_lock.h) runs it in the
// simulator.  McsTryV2Lock is TimeoutMcsCore with a zero-budget try_lock.
//
// Not everything moved onto the layer.  TAS/TTAS (bootstrap_locks.h) stay
// hand-written: TtasSpinLock is the Platform::PoolLock -- the bootstrap lock
// *beneath* this layer -- and cannot be expressed through it without a cycle.
// BasicMcsLock keeps its own body: caller-owned nodes + CAS release, the
// modern-hardware reference the native mcs_h2/mcs_classic ratio divides by,
// and its Enqueue/WaitForGrant split is what the hcheck FIFO tests observe.
// McsTryV1 and SpinThenBlockLock stay Platform-templated: their semantics
// (interrupt re-entry, OS blocking) have no simulator mapping, and they
// already run under two of the three memories.

#ifndef HLOCK_ALGO_BACKEND_H_
#define HLOCK_ALGO_BACKEND_H_

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

#include "src/hlock/algo/frame_cache.h"

namespace hprof {
class LockSiteStats;
}  // namespace hprof

namespace hlock::algo {

// Acquire budget (MakeDeadline) that never expires.  Checking an infinite
// deadline costs nothing in any backend, so a timed acquire with this budget
// is operation-for-operation identical to the untimed algorithm.
inline constexpr std::uint64_t kInfiniteBudget = ~std::uint64_t{0};

// One backend caller as hprof::SiteProbe sees it.  The probe asks only while
// a site is attached, so the clock read and the cluster lookup cost nothing
// on a detached lock.
template <class B>
class ProbeCaller {
 public:
  ProbeCaller(B* b, typename B::Ctx& ctx) : b_(b), ctx_(ctx) {}

  std::uint64_t Now() const { return b_->Now(ctx_); }
  std::uint32_t Owner() const { return b_->CtxId(ctx_); }
  std::uint32_t Cluster(const hprof::LockSiteStats&) const {
    return b_->ClusterOfCtx(b_->CtxId(ctx_));
  }

 private:
  B* b_;
  typename B::Ctx& ctx_;
};

// An already-available value, awaitable without suspending.  The native
// backend returns these from every operation, so an algorithm coroutine runs
// to completion synchronously inside the initial call.
template <typename T>
struct Ready {
  T value;
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() noexcept { return std::move(value); }
};

template <>
struct Ready<void> {
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

// Eagerly-run coroutine task: initial_suspend = never, so the body executes
// synchronously (all its awaitables are Ready or other SyncTasks); by the
// time the caller holds the SyncTask the result -- or a captured exception --
// is already there.  Exceptions are rethrown from Get()/await_resume():
// hcheck unwinds checked code with its AbortExecution exception, which must
// pass through nested lock coroutines intact.  The frame comes from
// FrameCache, so a lock step calls no allocator once the cache is warm.
template <typename T>
class SyncTask {
 public:
  struct promise_type : CachedFramePromise {
    T value{};
    std::exception_ptr error;

    SyncTask get_return_object() {
      return SyncTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { error = std::current_exception(); }
  };

  explicit SyncTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  SyncTask(SyncTask&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  SyncTask(const SyncTask&) = delete;
  SyncTask& operator=(const SyncTask&) = delete;
  ~SyncTask() {
    if (h_) {
      h_.destroy();
    }
  }

  T Get() {
    if (h_.promise().error) {
      std::rethrow_exception(h_.promise().error);
    }
    return std::move(h_.promise().value);
  }

  // Awaitable, so cores can co_await sub-cores (HMCS-T awaiting its
  // per-level TimeoutMcsCore) regardless of backend.
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() { return Get(); }

 private:
  std::coroutine_handle<promise_type> h_;
};

template <>
class SyncTask<void> {
 public:
  struct promise_type : CachedFramePromise {
    std::exception_ptr error;

    SyncTask get_return_object() {
      return SyncTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  explicit SyncTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  SyncTask(SyncTask&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  SyncTask(const SyncTask&) = delete;
  SyncTask& operator=(const SyncTask&) = delete;
  ~SyncTask() {
    if (h_) {
      h_.destroy();
    }
  }

  void Get() {
    if (h_.promise().error) {
      std::rethrow_exception(h_.promise().error);
    }
  }

  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() { Get(); }

 private:
  std::coroutine_handle<promise_type> h_;
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_BACKEND_H_
