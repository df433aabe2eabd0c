// Tests for the two TryLock variants (Section 3.2), including the starvation
// property the paper discovered: a true TryLock against a saturated queue
// lock essentially never sees the lock free, because releases hand the lock
// directly to a queued waiter.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hlock/mcs_try_lock.h"

namespace hlock {
namespace {

TEST(McsTryV1, BasicLockUnlock) {
  McsTryV1Lock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, 4000);
}

TEST(McsTryV1, InterruptAcquireFailsOnlyWhenSelfHolds) {
  // The flag detects "I interrupted my own lock code": LockFromInterrupt on
  // the same thread while the lock is held by that thread must fail...
  McsTryV1Lock lock;
  lock.lock();
  EXPECT_FALSE(lock.LockFromInterrupt());
  lock.unlock();
  // ...and succeed when the thread holds nothing.
  EXPECT_TRUE(lock.LockFromInterrupt());
  lock.unlock();
}

TEST(McsTryV2, BasicLockUnlockStress) {
  McsTryV2Lock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 1500; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, 6000);
}

TEST(McsTryV2, TryLockSucceedsWhenFree) {
  McsTryV2Lock lock;
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(McsTryV2, TryLockFailsWhenHeldAndNodeIsReclaimed) {
  McsTryV2Lock lock;
  lock.lock();
  std::atomic<bool> failed{false};
  std::thread t([&] { failed = !lock.try_lock(); });
  t.join();
  EXPECT_TRUE(failed.load());
  // The abandoned node is reclaimed by our release.
  lock.unlock();
  EXPECT_EQ(lock.abandoned_nodes_reclaimed(), 1u);
  // The lock still works.
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(McsTryV2, ReleaseSkipsChainsOfAbandonedNodes) {
  McsTryV2Lock lock;
  lock.lock();
  // Several failed try_locks pile abandoned nodes into the queue.
  for (int i = 0; i < 5; ++i) {
    std::thread t([&] { EXPECT_FALSE(lock.try_lock()); });
    t.join();
  }
  // A real waiter queues behind them.
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    lock.lock();
    acquired = true;
    lock.unlock();
  });
  // Give the waiter time to enqueue behind the garbage.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.unlock();  // must reclaim all 5 abandoned nodes and grant the waiter
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(lock.abandoned_nodes_reclaimed(), 5u);
}

TEST(McsTryV2, MixedLockAndTryLockStress) {
  McsTryV2Lock lock;
  std::int64_t counter = 0;
  std::atomic<std::uint64_t> try_successes{0};
  std::atomic<std::uint64_t> try_failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        if (t % 2 == 0) {
          lock.lock();
          counter = counter + 1;
          lock.unlock();
        } else {
          if (lock.try_lock()) {
            counter = counter + 1;
            lock.unlock();
            try_successes.fetch_add(1);
          } else {
            try_failures.fetch_add(1);
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  // Every successful critical section is accounted for.
  EXPECT_EQ(counter, 2000 + static_cast<std::int64_t>(try_successes.load()));
}

TEST(McsTryV2, TryLockStarvesAgainstSaturatedQueue) {
  // The paper's incompatibility result: while blocking waiters keep the queue
  // non-empty, every release hands the lock to a queued waiter, so TryLock
  // essentially never finds it free.
  McsTryV2Lock lock;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> hogs;
  for (int t = 0; t < 3; ++t) {
    hogs.emplace_back([&] {
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock();
        // Hold briefly; the queue stays occupied because the other hogs
        // enqueue while we hold.  The hold must outlast a hog's trip
        // through the node pool on its way back in: with an empty hold
        // the pool lock, not the queue, serializes the hogs, the queue is
        // often empty, and this would measure the pool.
        const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(2);
        while (std::chrono::steady_clock::now() < until) {
        }
        lock.unlock();
      }
    });
  }
  while (ready.load() != 3) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::uint64_t failures = 0;
  std::uint64_t successes = 0;
  for (int i = 0; i < 500; ++i) {
    if (lock.try_lock()) {
      ++successes;
      lock.unlock();
    } else {
      ++failures;
    }
    std::this_thread::yield();
  }
  stop = true;
  for (auto& h : hogs) {
    h.join();
  }
  // Retry-based locking is only probabilistically fair: the vast majority of
  // attempts must fail.  (On a single-core host the hogs barely overlap, so
  // keep the bound loose.)
  EXPECT_GT(failures, successes);
}

}  // namespace
}  // namespace hlock
