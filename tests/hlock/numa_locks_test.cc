// Property tests for the native NUMA-aware locks (CNA, HMCS-T, Fissile):
// mutual exclusion under real threads, timeout behaviour, and profiling-site
// attachment.  These run in the TSan job too — the algorithm cores are
// shared with the simulated and model-checked instantiations, so a data
// race here is a bug in every backend.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hlock/numa_locks.h"
#include "src/hprof/lock_site.h"

namespace hlock {
namespace {

template <typename Lock>
void MutualExclusionStress(Lock& lock, int threads, int iters) {
  std::int64_t counter = 0;
  std::atomic<int> overlap{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        lock.lock();
        if (overlap.fetch_add(1, std::memory_order_relaxed) != 0) {
          overlapped.store(true, std::memory_order_relaxed);
        }
        counter = counter + 1;
        overlap.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(counter, static_cast<std::int64_t>(threads) * iters);
}

constexpr int kThreads = 4;
constexpr int kIters = 2000;

TEST(NumaLocks, CnaMutualExclusion) {
  CnaLock lock(/*procs_per_cluster=*/2);
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NumaLocks, CnaTightStreakMutualExclusion) {
  // max_streak=1 forces a secondary-queue flush on every grant decision —
  // the splice paths run constantly instead of rarely.
  CnaLock lock(/*procs_per_cluster=*/2, /*max_streak=*/1);
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NumaLocks, CnaTryLock) {
  CnaLock lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(NumaLocks, HmcsTMutualExclusion) {
  HmcsTLock lock(/*procs_per_cluster=*/2);
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NumaLocks, HmcsTTightThresholdMutualExclusion) {
  HmcsTLock lock(/*procs_per_cluster=*/2, /*threshold=*/1);
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NumaLocks, HmcsTTimedAcquireSucceedsUncontended) {
  HmcsTLock lock(/*procs_per_cluster=*/2);
  ASSERT_TRUE(lock.try_lock_for(/*budget=*/1000));
  lock.unlock();
}

TEST(NumaLocks, HmcsTTimedAcquireTimesOutAndLeavesNoNodeBehind) {
  HmcsTLock lock(/*procs_per_cluster=*/2);
  lock.lock();
  std::atomic<int> failures{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&] {
      if (!lock.try_lock_for(/*budget=*/50)) {
        failures.fetch_add(1, std::memory_order_relaxed);
      } else {
        lock.unlock();
      }
    });
  }
  for (auto& w : waiters) {
    w.join();
  }
  lock.unlock();
  EXPECT_GT(failures.load(), 0);
  // Whatever timed out must have withdrawn cleanly: the lock still cycles.
  lock.lock();
  lock.unlock();
  ASSERT_TRUE(lock.try_lock_for(/*budget=*/1000));
  lock.unlock();
}

TEST(NumaLocks, FissileMutualExclusion) {
  FissileLock lock;
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NumaLocks, FissileTryLock) {
  FissileLock lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
}

TEST(NumaLocks, DrwWriterMutualExclusion) {
  DrwLock lock(/*procs_per_cluster=*/2);
  MutualExclusionStress(lock, kThreads, kIters);
}

// Readers and writers race the same shared value: TSan sees any reader that
// overlaps a writer, and the writer's two-step update is asserted never to be
// observed half-done.
TEST(NumaLocks, DrwReadersExcludeWriters) {
  DrwLock lock(/*procs_per_cluster=*/2);
  std::int64_t value = 0;  // guarded by `lock`; deliberately not atomic
  std::atomic<bool> torn{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        if (t == 0) {
          lock.lock();
          value = value + 1;  // transiently odd...
          value = value + 1;  // ...even again before release
          lock.unlock();
        } else {
          lock.lock_shared();
          if (value % 2 != 0) {
            torn.store(true, std::memory_order_relaxed);
          }
          lock.unlock_shared();
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_FALSE(torn.load());
  lock.lock();
  EXPECT_EQ(value, 2 * kIters);
  lock.unlock();
}

// Readers on different clusters genuinely overlap: with one reader parked
// inside its hold, a second reader must get in without waiting.
TEST(NumaLocks, DrwSharedHoldsOverlap) {
  DrwLock lock(/*procs_per_cluster=*/1);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    lock.lock_shared();
    parked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    lock.unlock_shared();
  });
  while (!parked.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(lock.try_lock_shared());  // second reader alongside the first
  EXPECT_FALSE(lock.try_lock());        // but no writer
  lock.unlock_shared();
  release.store(true, std::memory_order_release);
  holder.join();
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(NumaLocks, DrwTryLock) {
  DrwLock lock(/*procs_per_cluster=*/2);
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock_shared());
  lock.unlock();
  ASSERT_TRUE(lock.try_lock_shared());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock_shared();
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(NumaLocks, DrwProfilingSitesSplitReadersAndWriters) {
  hprof::LockSiteStats reader_site("test/drw.reader", /*procs_per_cluster=*/2);
  hprof::LockSiteStats writer_site("test/drw.writer", /*procs_per_cluster=*/2);
  DrwLock lock(/*procs_per_cluster=*/2);
  lock.core().set_sites(&reader_site, &writer_site);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        lock.lock_shared();
        lock.unlock_shared();
        lock.lock();
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  lock.core().set_sites(nullptr, nullptr);
  EXPECT_EQ(reader_site.acquisitions(), static_cast<std::uint64_t>(kThreads) * 200);
  EXPECT_EQ(writer_site.acquisitions(), static_cast<std::uint64_t>(kThreads) * 200);
}

TEST(NumaLocks, ProfilingSiteRecordsAcquisitions) {
  hprof::LockSiteStats site("test/cna", /*procs_per_cluster=*/2);
  CnaLock lock(/*procs_per_cluster=*/2);
  lock.set_site(&site);
  MutualExclusionStress(lock, kThreads, 500);
  lock.set_site(nullptr);
  EXPECT_EQ(site.acquisitions(), static_cast<std::uint64_t>(kThreads) * 500);
}

}  // namespace
}  // namespace hlock
