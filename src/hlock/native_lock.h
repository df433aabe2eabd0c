// The one native lock adapter: an algorithm core from src/hlock/algo/ bound to
// the native memory backend.
//
// Every lock algorithm is written once, as a core over the memory-backend
// concept (algo/backend.h).  NativeLock<Core, Platform> owns a
// NativeBackend<Platform> and one Core over it.  Over that backend the core
// is its plain pass (algo/two_pass.h), so lock() is the call Acquire(ctx)
// and unlock() the call Release(ctx), with no coroutine in between.  Bound to
// StdPlatform that is raw std::atomic; bound to hcheck::Platform the same
// instantiation runs on the model checker's memory, one schedule point per
// backend operation.
//
// Members that only some cores support exist only where the core provides the
// operation they forward to (a requires-clause on the core, never on which
// core it is): try_lock, the shared side of a reader-writer core, the timed
// acquire, and the repair / reclaim counters.  Anything else is reachable
// through core().
//
// Construction: `procs_per_cluster` maps dense thread ids onto clusters (see
// NativeBackend); the remaining arguments go to the core after its backend
// and home module, e.g. CnaLock(4, /*max_streak=*/16).

#ifndef HLOCK_NATIVE_LOCK_H_
#define HLOCK_NATIVE_LOCK_H_

#include <cstdint>
#include <utility>

#include "src/hlock/algo/native_backend.h"
#include "src/hlock/platform.h"
#include "src/hprof/lock_site.h"

namespace hlock {

template <template <class> class Core, class Platform = StdPlatform>
class NativeLock {
 public:
  using Backend = algo::NativeBackend<Platform>;
  using CoreType = Core<Backend>;
  using Ctx = typename Backend::Ctx;

  NativeLock() : NativeLock(1) {}
  template <class... CoreArgs>
  explicit NativeLock(std::uint32_t procs_per_cluster, CoreArgs&&... core_args)
      : backend_(procs_per_cluster),
        core_(&backend_, /*home=*/0, std::forward<CoreArgs>(core_args)...) {}
  NativeLock(const NativeLock&) = delete;
  NativeLock& operator=(const NativeLock&) = delete;

  void lock() {
    Ctx ctx = Self();
    core_.Acquire(ctx);
  }

  void unlock() {
    Ctx ctx = Self();
    core_.Release(ctx);
  }

  bool try_lock()
    requires requires(CoreType& c, Ctx& x) { c.TryAcquire(x); }
  {
    Ctx ctx = Self();
    return core_.TryAcquire(ctx);
  }

  // Timed acquire: gives up after `budget` spin iterations (the native
  // backend's deadline unit).  Returns false without holding the lock or
  // leaving a queue node behind.
  bool try_lock_for(std::uint64_t budget)
    requires requires(CoreType& c, Ctx& x, typename Backend::Deadline& d) { c.Acquire(x, d); }
  {
    Ctx ctx = Self();
    typename Backend::Deadline deadline = backend_.MakeDeadline(ctx, budget);
    return core_.Acquire(ctx, deadline);
  }

  // --- shared side (reader-writer cores) -------------------------------------

  void lock_shared()
    requires requires(CoreType& c, Ctx& x) { c.AcquireShared(x); }
  {
    Ctx ctx = Self();
    core_.AcquireShared(ctx);
  }

  void unlock_shared()
    requires requires(CoreType& c, Ctx& x) { c.ReleaseShared(x); }
  {
    Ctx ctx = Self();
    core_.ReleaseShared(ctx);
  }

  bool try_lock_shared()
    requires requires(CoreType& c, Ctx& x) { c.TryAcquireShared(x); }
  {
    Ctx ctx = Self();
    return core_.TryAcquireShared(ctx);
  }

  // --- statistics and profiling ------------------------------------------------

  // Contended releases that had to repair the queue (swap-only MCS release).
  std::uint64_t repairs() const
    requires requires(const CoreType& c) { c.repairs(); }
  {
    return core_.repairs();
  }

  // Abandoned queue nodes reclaimed by releasers (timeout cores).
  std::uint64_t abandoned_nodes_reclaimed() const
    requires requires(const CoreType& c) { c.abandoned_nodes_reclaimed(); }
  {
    return core_.abandoned_nodes_reclaimed();
  }

  // Attaches a profiling site (null detaches); wait/hold samples are host
  // nanoseconds.  Not thread-safe against concurrent lock users.
  void set_site(hprof::LockSiteStats* site) { core_.set_site(site); }

  CoreType& core() { return core_; }
  const CoreType& core() const { return core_; }

 private:
  static Ctx Self() { return Ctx{Platform::ThreadId()}; }

  Backend backend_;
  CoreType core_;
};

}  // namespace hlock

#endif  // HLOCK_NATIVE_LOCK_H_
