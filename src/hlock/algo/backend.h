// The memory-backend concept: one lock algorithm, three memories.
//
// Every lock algorithm in src/hlock/algo/ is written exactly once, over an
// abstract *memory backend* B, and compiled twice from that one text
// (two_pass.h): as coroutines for a backend whose operations suspend, and as
// plain functions for a backend whose operations are done when they return.
// A backend supplies the pieces that the native Platform policy
// (src/hlock/platform.h) and the HECTOR simulator's Processor API
// (src/hsim/machine.h) both provide, just with different spellings and costs:
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
//                         what the algorithm bodies return: hsim::Task<T>
//                         (lazy, costed co_awaits) in the simulator, which
//                         makes them coroutines; T itself natively and under
//                         hcheck, which makes them plain functions
//                         (PlainBackend below).
//
// Operations (all carry std::memory_order parameters; the native backend
// honours them, the simulator -- a sequentially consistent machine with an
// explicit write buffer -- ignores them).  A plain backend returns T for
// each TaskT<T> (Load returns u64, Store void):
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
//   aw<void> is void natively and, in hsim, the engine's WaitAwaiter (a plain
//   delay that allocates no frame), which every call site awaits at once.
//
//   aw<void> Exec(ctx, registers, branches)
//               charge register/branch instructions (simulator only; free
//               natively) -- this is what makes fig4 instruction counts
//               reproduce through the shared layer
//   aw<void> SpinPause(ctx, spin_wait)     one pacing step of a local spin
//               loop (fixed 16-tick delay in hsim; natively one round of a
//               short Platform::Backoff, i.e. exactly one hcheck schedule
//               point)
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
//   u32  ClustersInUse()       clusters [0, n) that hold every caller that
//                              has had an id so far, <= NumClusters().
//                              Natively it grows with
//                              hlock::ThreadIdHighWater (a seq_cst load);
//                              in hsim it is NumClusters(), a fixed
//                              processor set.  Only scans that read it
//                              after their own seq_cst store may stop
//                              there (the drw writer sweep)
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
// (native_lock.h) calls any core's plain pass, natively and under hcheck;
// hsim::SimLockOf<Core> (src/hsim/locks/sim_lock.h) runs it in the
// simulator.  McsTryV2Lock is TimeoutMcsCore with a zero-budget try_lock.
//
// Not everything moved onto the layer.  TAS/TTAS (bootstrap_locks.h) stay
// hand-written: TtasSpinLock is the Platform::PoolLock -- the bootstrap lock
// *beneath* this layer -- and cannot be expressed through it without a cycle.
// BasicMcsLock keeps its own body: caller-owned nodes + CAS release, the
// modern-hardware reference the native mcs_h2/mcs_classic ratio divides by,
// and its Enqueue/WaitForGrant split is what the hcheck FIFO tests observe.
// McsTryV1 runs its queue on BasicMcsLock and adds only the per-thread
// in_use flag.  It and SpinThenBlockLock stay Platform-templated: their
// semantics (interrupt re-entry, OS blocking) have no simulator mapping, and
// they already run under two of the three memories.

#ifndef HLOCK_ALGO_BACKEND_H_
#define HLOCK_ALGO_BACKEND_H_

#include <concepts>
#include <cstdint>

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

// The home module of a cluster's lowest-numbered context: where the cores
// place a cluster's own words (drw reader counters, halloc caches and
// magazines), so the cluster's accesses to them are local in the simulator.
// Module 0 for a cluster no context maps to.
template <class B>
std::uint32_t ClusterHome(const B& b, std::uint32_t cluster) {
  const std::uint32_t n = b.NumCtxs();
  for (std::uint32_t id = 0; id < n; ++id) {
    if (b.ClusterOfCtx(id) == cluster) {
      return b.HomeOf(id);
    }
  }
  return 0;
}

// A backend whose TaskT<T> is T itself completes every operation at the
// call, so the cores compile against it as plain functions (two_pass.h).
template <class B>
concept PlainBackend = std::same_as<typename B::template TaskT<int>, int>;

template <class B>
concept SuspendingBackend = !PlainBackend<B>;

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_BACKEND_H_
