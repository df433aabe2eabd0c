// Platform policy for the hlock primitives.
//
// Every lock in hlock is written against a small policy class supplying the
// atomics, blocking primitives, and thread identity it runs on.  `StdPlatform`
// (the default on every public alias) binds them to the real ones —
// std::atomic, std::mutex, hardware pause — and compiles to exactly the code
// the untemplated originals did.  The hcheck model checker provides a second
// policy (src/hcheck/platform.h) that substitutes its simulated weak-memory
// atomics and scheduler, so the same lock source can be exhaustively
// schedule-checked.
//
// Policy surface a Platform must provide:
//   kMaxThreads          max dense thread ids (bounds per-thread node arrays)
//   Atomic<T>            std::atomic-compatible template
//   Mutex / CondVar      BasicLockable + condition_variable(wait/notify)
//   PoolLock             small BasicLockable for node-pool protection
//   Backoff              spin-wait helper with Pause() and rounds()
//   ThreadId()           dense id of the calling thread, < kMaxThreads
//   ThreadIdHighWater()  ids issued so far (seq_cst load): every id ThreadId()
//                        returned, on any thread, is below it
//   Fence(memory_order)  std::atomic_thread_fence equivalent
//   Pause()              one cpu-relax hint
//   Check(cond, msg)     invariant check; must not return when cond is false

#ifndef HLOCK_PLATFORM_H_
#define HLOCK_PLATFORM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/hlock/backoff.h"
#include "src/hlock/bootstrap_locks.h"
#include "src/hlock/thread_id.h"

namespace hlock {

struct StdPlatform {
  static constexpr std::uint32_t kMaxThreads = hlock::kMaxThreads;

  template <typename T>
  using Atomic = std::atomic<T>;
  using Mutex = std::mutex;
  using CondVar = std::condition_variable;
  using PoolLock = TtasSpinLock;
  using Backoff = hlock::Backoff;

  static std::uint32_t ThreadId() { return CurrentThreadId(); }
  static std::uint32_t ThreadIdHighWater() { return hlock::ThreadIdHighWater(); }
  static void Fence(std::memory_order mo) { std::atomic_thread_fence(mo); }
  static void Pause() { CpuRelax(); }
  static void Check(bool cond, const char* msg) {
    if (!cond) {
      std::fprintf(stderr, "hlock: invariant violated: %s\n", msg);
      std::abort();
    }
  }
};

}  // namespace hlock

#endif  // HLOCK_PLATFORM_H_
