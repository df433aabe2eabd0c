// Native memory backend: the algorithm layer on a Platform policy.
//
// One template covers two of the three memories (see backend.h): bound to
// hlock::StdPlatform it runs on raw std::atomic for production and benches;
// bound to hcheck::Platform the same instantiation runs on the model
// checker's vector-clock memory, where every operation is a schedule point.
// TaskT<T> is T and every operation returns its plain value, so the cores
// run here as their plain pass (two_pass.h): ordinary calls, with no
// coroutine frame and nothing to await.
// Simulated-machine concerns (instruction costing, word homes, trace spans)
// degrade to no-ops; memory orders are honoured exactly as written by the
// algorithm cores.
//
// Determinism note: under hcheck an execution must replay bit-for-bit from
// its decision sequence, so nothing here may consult wall clocks or entropy
// on the operation path.  Deadlines are iteration budgets and RandomBelow is
// a fixed midpoint (backoff jitter is a simulator-fidelity feature, not a
// correctness one).

#ifndef HLOCK_ALGO_NATIVE_BACKEND_H_
#define HLOCK_ALGO_NATIVE_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "src/hlock/algo/backend.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

template <class Platform>
class NativeBackend {
 public:
  // True when the Platform is the model checker's (hcheck::Platform sets
  // kModelChecked); backoff collapses to single yields there.
  static constexpr bool kModelChecked = requires { Platform::kModelChecked; };
  // `procs_per_cluster` maps dense thread ids onto clusters for the
  // NUMA-aware algorithms (CNA's secondary queue, HMCS-T's local level) and
  // for hprof handoff attribution.  Native thread placement is whatever the
  // OS did, so this is a modelling knob, not a hardware fact; 1 makes every
  // thread its own cluster (the conservative default matching hprof).
  explicit NativeBackend(std::uint32_t procs_per_cluster = 1)
      : procs_per_cluster_(procs_per_cluster == 0 ? 1 : procs_per_cluster) {}

  struct Ctx {
    std::uint32_t id;
  };

  // A backend-owned 64-bit location.  Default-constructed to 0; InitWord
  // re-places it (placement is meaningless natively, so this is just an
  // initializing store).  Not movable once observed -- cores keep words in
  // fixed arrays, never containers that relocate.
  struct Word {
    typename Platform::template Atomic<std::uint64_t> v{0};
  };

  template <typename T>
  using TaskT = T;

  using SpinWait = typename Platform::Backoff;

  struct Deadline {
    std::uint64_t remaining = 0;
    bool infinite = true;
  };

  // --- word lifecycle -------------------------------------------------------
  void InitWord(Word& w, std::uint32_t /*home_module*/, std::uint64_t init) {
    w.v.store(init, std::memory_order_relaxed);
  }

  // --- memory operations ----------------------------------------------------
  std::uint64_t Load(Ctx&, Word& w, std::memory_order mo) { return w.v.load(mo); }
  void Store(Ctx&, Word& w, std::uint64_t v, std::memory_order mo) { w.v.store(v, mo); }
  // Write-buffered store in the simulator; a relaxed store here.  Used by the
  // cores only for rest-state re-initialization of locations nobody reads
  // until the writer's own next acquire.
  void PostStore(Ctx&, Word& w, std::uint64_t v) {
    w.v.store(v, std::memory_order_relaxed);
  }
  std::uint64_t FetchStore(Ctx&, Word& w, std::uint64_t v, std::memory_order mo) {
    return w.v.exchange(v, mo);
  }
  bool CompareSwap(Ctx&, Word& w, std::uint64_t expected, std::uint64_t desired,
                   std::memory_order ok_mo, std::memory_order fail_mo) {
    return w.v.compare_exchange_strong(expected, desired, ok_mo, fail_mo);
  }

  // --- costing / pacing -----------------------------------------------------
  // Instruction costing is a simulator concern.
  void Exec(Ctx&, std::uint32_t /*registers*/, std::uint32_t /*branches*/) {}
  // A local spin waits on a word only its own grant writes, so a long pause
  // saves no traffic and only delays the moment the waiter sees the grant:
  // the pace doubles from 1 to 16 pauses, then yields each round (the
  // few-core valve), not hlock::Backoff's default 4 -> 1024.
  SpinWait MakeSpinWait() { return SpinWait(1, 16); }
  // One local-spin pacing step: exactly one Platform::Backoff round, which
  // under hcheck is exactly one Yield -- the same schedule-point shape the
  // hand-written locks had, so existing model-checking results carry over.
  void SpinPause(Ctx&, SpinWait& sw) { sw.Pause(); }
  // Explicit algorithmic backoff (Figure 3c's doubling delay), in backend
  // time units.  Natively a unit is one pause instruction; `at_cap` is the
  // few-core-host valve hlock::Backoff has at its cap -- once the delay stops
  // growing, let the holder have the core.
  void BackoffUnits(Ctx&, std::uint64_t units, bool at_cap) {
    if constexpr (kModelChecked) {
      // Delay magnitude is meaningless to the model checker, and every Pause
      // is a schedule point: one Yield is a complete backoff (the same shape
      // the hand-written spin loops had, one yield per retry).
      Platform::Pause();
      return;
    }
    constexpr std::uint64_t kMaxSpins = 4096;
    const std::uint64_t spins = units < kMaxSpins ? units : kMaxSpins;
    for (std::uint64_t i = 0; i < spins; ++i) {
      Platform::Pause();
    }
    if (at_cap) {
      std::this_thread::yield();
    }
  }

  // --- identity / topology (host-side, free) --------------------------------
  std::uint32_t CtxId(Ctx& ctx) const { return ctx.id; }
  std::uint32_t NumCtxs() const { return Platform::kMaxThreads; }
  std::uint32_t ClusterOfCtx(std::uint32_t id) const { return id / procs_per_cluster_; }
  std::uint32_t NumClusters() const {
    return (NumCtxs() + procs_per_cluster_ - 1) / procs_per_cluster_;
  }
  // The clusters of every id issued so far (hlock::ThreadIdHighWater).
  std::uint32_t ClustersInUse() const {
    const std::uint32_t ids = Platform::ThreadIdHighWater();
    const std::uint32_t used = (ids + procs_per_cluster_ - 1) / procs_per_cluster_;
    return used < NumClusters() ? used : NumClusters();
  }
  std::uint32_t procs_per_cluster() const { return procs_per_cluster_; }
  std::uint32_t HomeOf(std::uint32_t /*ctx_id*/) const { return 0; }

  // Ticks for hprof wait/hold intervals: host nanoseconds.  Cores only call
  // this when a site is attached, preserving the zero-cost-when-detached
  // contract of the hand-written locks.
  std::uint64_t Now(Ctx&) const { return hprof::LockSiteStats::NowTicks(); }

  std::uint64_t RandomBelow(Ctx&, std::uint64_t bound) const {
    return bound == 0 ? 0 : bound / 2;  // deterministic midpoint (see header)
  }

  Deadline MakeDeadline(Ctx&, std::uint64_t budget) const {
    return budget == kInfiniteBudget ? Deadline{0, true} : Deadline{budget, false};
  }
  // Free when infinite, so a timed acquire with an infinite budget is
  // operation-for-operation identical to the untimed algorithm.
  bool Expired(Ctx&, Deadline& d) const {
    if (d.infinite) {
      return false;
    }
    if (d.remaining == 0) {
      return true;
    }
    --d.remaining;
    return false;
  }

  static void Check(bool cond, const char* msg) { Platform::Check(cond, msg); }

  // Node-pool guard for the timeout cores' alloc/free (Platform::PoolLock:
  // the bootstrap TTAS lock natively, the model mutex under hcheck).
  template <class F>
  void WithPool(F&& f) {
    std::lock_guard<typename Platform::PoolLock> guard(pool_lock_);
    f();
  }

  // --- trace hooks (simulator only) -----------------------------------------
  struct Span {};
  Span AcquireSpan(Ctx&, const std::string&) { return Span{}; }
  void EndSpan(Ctx&, Span&) {}
  void ReleaseInstant(Ctx&, const std::string&) {}

 private:
  std::uint32_t procs_per_cluster_;
  typename Platform::PoolLock pool_lock_;
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_NATIVE_BACKEND_H_
