// Typed property suite: every native BasicLockable in hlock is put through
// the same mutual-exclusion, try_lock, and guard-compatibility checks.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hlock/mcs_locks.h"
#include "src/hlock/mcs_try_lock.h"
#include "src/hlock/spin_locks.h"
#include "src/hlock/spin_then_block.h"

namespace hlock {
namespace {

template <typename T>
class TypedLockTest : public ::testing::Test {};

using LockTypes =
    ::testing::Types<TasSpinLock, TtasSpinLock, BackoffSpinLock, McsH1Lock, McsH2Lock,
                     McsTryV1Lock, McsTryV2Lock, SpinThenBlockLock>;
TYPED_TEST_SUITE(TypedLockTest, LockTypes);

TYPED_TEST(TypedLockTest, MutualExclusion) {
  TypeParam lock;
  std::int64_t counter = 0;
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  constexpr int kThreads = 3;
  constexpr int kIters = 1200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        if (inside.fetch_add(1, std::memory_order_relaxed) != 0) {
          overlap.store(true);
        }
        counter = counter + 1;
        inside.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_FALSE(overlap.load());
  EXPECT_EQ(counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TYPED_TEST(TypedLockTest, LockGuardRoundTrip) {
  TypeParam lock;
  for (int i = 0; i < 100; ++i) {
    std::lock_guard<TypeParam> guard(lock);
  }
  SUCCEED();
}

TYPED_TEST(TypedLockTest, SequentialReacquisition) {
  // The H-variant rest-state invariant (and every other lock's basic
  // soundness): one thread can acquire/release indefinitely.
  TypeParam lock;
  for (int i = 0; i < 5000; ++i) {
    lock.lock();
    lock.unlock();
  }
  SUCCEED();
}

// try_lock checks, only for the types that have one with try semantics on a
// free lock (all but McsTryV1Lock, whose "try" is LockFromInterrupt).
template <typename T>
class TypedTryLockTest : public ::testing::Test {};

using TryLockTypes = ::testing::Types<TasSpinLock, TtasSpinLock, BackoffSpinLock, McsH1Lock,
                                      McsH2Lock, McsTryV2Lock, SpinThenBlockLock>;
TYPED_TEST_SUITE(TypedTryLockTest, TryLockTypes);

TYPED_TEST(TypedTryLockTest, TryLockFreeSucceedsHeldFails) {
  TypeParam lock;
  ASSERT_TRUE(lock.try_lock());
  std::atomic<bool> second{true};
  // Probe from another thread (some locks are per-thread-node based, so the
  // same thread probing itself is not the interesting case).
  std::thread t([&] { second = lock.try_lock(); });
  t.join();
  EXPECT_FALSE(second.load());
  lock.unlock();
  std::atomic<bool> third{false};
  std::thread t2([&] {
    if (lock.try_lock()) {
      third = true;
      lock.unlock();
    }
  });
  t2.join();
  EXPECT_TRUE(third.load());
}

}  // namespace
}  // namespace hlock
