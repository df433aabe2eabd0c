// Bootstrap spin locks: test-and-set and test-and-test-and-set.
//
// These two are deliberately *not* written over the algorithm layer
// (src/hlock/algo/): TtasSpinLock is StdPlatform's PoolLock -- the lock the
// layer's own node pools sit on -- so expressing it through the layer would
// be circular.  They are also the baselines simple enough that a policy
// indirection would obscure more than it shares.

#ifndef HLOCK_BOOTSTRAP_LOCKS_H_
#define HLOCK_BOOTSTRAP_LOCKS_H_

#include <atomic>
#include <cstdint>

#include "src/hlock/backoff.h"
#include "src/hlock/thread_id.h"
#include "src/hprof/lock_site.h"

namespace hlock {

// Pure test-and-set: every retry is a read-modify-write.  The simplest and,
// under contention, the most cache-line-hostile lock.
class TasSpinLock {
 public:
  void lock() {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      CpuRelax();
    }
  }

  bool try_lock() { return !locked_.exchange(true, std::memory_order_acquire); }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

// Test-and-test-and-set: spin on a plain load (cache-local once the line is
// shared) and only attempt the RMW when the lock looks free.
class TtasSpinLock {
 public:
  void lock() {
    hprof::SiteProbe::Wait wait = probe_.Begin(kCaller);
    while (locked_.exchange(true, std::memory_order_acquire)) {
      probe_.Contend(wait, kCaller);
      while (locked_.load(std::memory_order_relaxed)) {
        CpuRelax();
      }
    }
    probe_.Grant(wait, kCaller);
  }

  bool try_lock() {
    const bool taken = !locked_.load(std::memory_order_relaxed) &&
                       !locked_.exchange(true, std::memory_order_acquire);
    if (taken) {
      probe_.GrantAtOnce(kCaller);
    }
    return taken;
  }

  void unlock() {
    probe_.Release(kCaller);
    locked_.store(false, std::memory_order_release);
  }

  // Attaches a profiling site (null detaches); wait/hold samples are host
  // nanoseconds.  Not thread-safe against concurrent lock users.
  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }

 private:
  static constexpr hprof::HostCaller kCaller{&CurrentThreadId};

  std::atomic<bool> locked_{false};
  hprof::SiteProbe probe_;
};

}  // namespace hlock

#endif  // HLOCK_BOOTSTRAP_LOCKS_H_
