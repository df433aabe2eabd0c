// FrameCache: the per-thread size-class free lists behind every coroutine
// frame (hsim::Task, algo::SyncTask).  Under AddressSanitizer the cache is a
// pass-through, and each test checks that instead.

#include "src/hlock/algo/frame_cache.h"

#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "src/hlock/algo/backend.h"
#include "src/hsim/task.h"

namespace hlock::algo {
namespace {

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

// Reports the cache's size while its own frame is live.
SyncTask<int> SyncAnswer(std::size_t* cached_while_running) {
  *cached_while_running = FrameCache::CachedOnThisThread();
  co_return 42;
}

hsim::Task<int> LazyAnswer() { co_return 7; }

TEST(FrameCache, BothTaskTypesTakeTheirFramesFromIt) {
  std::size_t before = 0;
  EXPECT_EQ(SyncAnswer(&before).Get(), 42);
  EXPECT_EQ(FrameCache::CachedOnThisThread(), before + kExpect);
  {
    hsim::Task<int> lazy = LazyAnswer();  // never started, destroyed unrun
    before = FrameCache::CachedOnThisThread();
  }
  EXPECT_EQ(FrameCache::CachedOnThisThread(), before + kExpect);
}

}  // namespace
}  // namespace hlock::algo
