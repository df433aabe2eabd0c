// FrameCache: the per-thread size-class free lists behind every coroutine
// frame (hsim::Task), and a check that native lock cores, which are plain
// functions, never reach it.  Under AddressSanitizer the cache is a
// pass-through, and each test checks that instead.

#include "src/hlock/algo/frame_cache.h"

#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "src/halloc/slab_allocator.h"
#include "src/hlock/hybrid_table.h"
#include "src/hlock/mcs_locks.h"
#include "src/hlock/mcs_try_lock.h"
#include "src/hlock/numa_locks.h"
#include "src/hlock/spin_locks.h"
#include "src/hsim/task.h"

namespace hlock {
namespace {

using algo::FrameCache;

constexpr std::size_t kExpect = FrameCache::kEnabled ? 1 : 0;

TEST(FrameCache, FreedFrameIsReusedWithinItsSizeClass) {
  static_assert(FrameCache::ClassOf(100) == FrameCache::ClassOf(128));
  static_assert(FrameCache::ClassOf(128) != FrameCache::ClassOf(129));
  // Counts are taken after allocating: an allocation may pop a frame that
  // earlier tests on this thread left in the cache.
  void* a = FrameCache::Allocate(100);
  const std::size_t before = FrameCache::CachedOnThisThread();
  FrameCache::Free(a, 100);
  EXPECT_EQ(FrameCache::CachedOnThisThread(), before + kExpect);

  // Another class does not take it.
  void* other = FrameCache::Allocate(200);
  EXPECT_NE(other, a);
  FrameCache::Free(other, 200);

  // The next frame of the same class does (a different size, same class).
  void* b = FrameCache::Allocate(120);
  if (FrameCache::kEnabled) {
    EXPECT_EQ(b, a);
  } else {
    EXPECT_NE(b, a);  // ASan quarantines the freed block
  }
  FrameCache::Free(b, 120);
}

TEST(FrameCache, FramesAboveTheLargestClassBypassTheCache) {
  void* largest = FrameCache::Allocate(FrameCache::kMaxBytes);
  void* big = FrameCache::Allocate(FrameCache::kMaxBytes + 1);
  const std::size_t before = FrameCache::CachedOnThisThread();
  FrameCache::Free(big, FrameCache::kMaxBytes + 1);
  EXPECT_EQ(FrameCache::CachedOnThisThread(), before);
  FrameCache::Free(largest, FrameCache::kMaxBytes);
  EXPECT_EQ(FrameCache::CachedOnThisThread(), before + kExpect);
}

TEST(FrameCache, ThreadExitReleasesTheThreadsFrames) {
  constexpr int kFrames = 3;
  const std::uint64_t released_before = FrameCache::ReleasedAtThreadExit();
  std::size_t cached_on_worker = 0;
  std::thread worker([&] {
    void* frames[kFrames];
    for (int i = 0; i < kFrames; ++i) {
      frames[i] = FrameCache::Allocate(64 * (i + 1));
    }
    for (int i = 0; i < kFrames; ++i) {
      FrameCache::Free(frames[i], 64 * (i + 1));
    }
    cached_on_worker = FrameCache::CachedOnThisThread();
  });
  worker.join();
  EXPECT_EQ(cached_on_worker, kFrames * kExpect);
  // Other threads of the process may exit meanwhile; they only add.
  EXPECT_GE(FrameCache::ReleasedAtThreadExit(), released_before + kFrames * kExpect);
}

hsim::Task<int> LazyAnswer() { co_return 7; }

TEST(FrameCache, SimTaskTakesItsFrameFromIt) {
  std::size_t before = 0;
  {
    hsim::Task<int> lazy = LazyAnswer();  // never started, destroyed unrun
    before = FrameCache::CachedOnThisThread();
  }
  EXPECT_EQ(FrameCache::CachedOnThisThread(), before + kExpect);
}

// A few uncontended lock/unlock pairs.
template <class Lock>
void LockPairs(Lock& lock) {
  for (int i = 0; i < 3; ++i) {
    lock.lock();
    lock.unlock();
  }
}

// Natively every core is its plain pass: a lock step, a table read and a
// slab alloc/free allocate no coroutine frame, so the fresh thread's cache
// stays empty.  A coroutine-backed core would leave its first frame there.
TEST(FrameCache, NativeCoresAllocateNoFrame) {
  if (!FrameCache::kEnabled) {
    GTEST_SKIP() << "frames bypass the cache under AddressSanitizer";
  }
  std::size_t cached = ~std::size_t{0};
  std::thread worker([&] {
    BackoffSpinLock spin;
    McsH1Lock h1;
    McsH2Lock h2;
    McsTryV2Lock try_v2;
    CnaLock cna;
    HmcsTLock hmcs;
    FissileLock fissile;
    DrwLock drw;
    LockPairs(spin);
    LockPairs(h1);
    LockPairs(h2);
    LockPairs(try_v2);
    LockPairs(cna);
    LockPairs(hmcs);
    LockPairs(fissile);
    LockPairs(drw);
    drw.lock_shared();
    drw.unlock_shared();

    HybridTable<int, int> table;
    table.Acquire(1).value() = 10;
    EXPECT_EQ(table.Peek(1), 10);
    EXPECT_TRUE(table.AcquireShared(1));

    halloc::SlabConfig cfg;
    cfg.objects_per_cluster = 8;
    cfg.magazine_size = 4;
    halloc::SlabAllocator<int> pool(/*num_clusters=*/1, cfg);
    int* obj = pool.Alloc();
    ASSERT_NE(obj, nullptr);
    pool.Free(obj);

    cached = FrameCache::CachedOnThisThread();
  });
  worker.join();
  EXPECT_EQ(cached, 0u);
}

}  // namespace
}  // namespace hlock
