// hcheck::Platform — the model-checker side of the hlock platform policy
// (src/hlock/platform.h).  Instantiating an hlock primitive with this policy
// reroutes every atomic, mutex, condvar, fence, and thread id through the
// hcheck runtime, so the primitive executes on the simulated weak-memory
// model under the controlled scheduler:
//
//   using Lock = hlock::BasicSpinThenBlockLock<hcheck::Platform>;
//   hcheck::Check(opts, [] { auto l = std::make_shared<Lock>(0); ... });
//
// Backoff/Pause become scheduler yields (a model "spin" must hand the virtual
// CPU to the thread it is waiting on), and Check() failures become reported
// schedule violations instead of process aborts.

#ifndef HCHECK_PLATFORM_H_
#define HCHECK_PLATFORM_H_

#include <atomic>
#include <cstdint>

#include "src/hcheck/atomic.h"
#include "src/hcheck/checker.h"
#include "src/hcheck/model.h"
#include "src/hcheck/sync.h"

namespace hcheck {

struct Platform {
  static constexpr std::uint32_t kMaxThreads = kMaxModelThreads;
  // Tells backoff-aware code (src/hlock/algo/native_backend.h) that delay
  // magnitudes are meaningless here: one Yield is a complete backoff.
  static constexpr bool kModelChecked = true;

  template <typename T>
  using Atomic = hcheck::Atomic<T>;
  using Mutex = hcheck::Mutex;
  using CondVar = hcheck::CondVar;
  using PoolLock = hcheck::Mutex;

  // Spin loops must yield the virtual CPU or the waited-on thread never runs.
  class Backoff {
   public:
    explicit Backoff(std::uint32_t = 0, std::uint32_t = 0) {}
    void Pause() {
      hcheck::Yield();
      ++rounds_;
    }
    std::uint64_t rounds() const { return rounds_; }

   private:
    std::uint64_t rounds_ = 0;
  };

  static std::uint32_t ThreadId() { return RegisterThreadId(); }
  static std::uint32_t ThreadIdHighWater() { return hcheck::ThreadIdHighWater(); }
  static void Fence(std::memory_order mo) { hcheck::ThreadFence(mo); }
  static void Pause() { hcheck::Yield(); }
  static void Check(bool cond, const char* msg) {
    if (!cond) {
      FailCheck(msg);
    }
  }
};

}  // namespace hcheck

#endif  // HCHECK_PLATFORM_H_
