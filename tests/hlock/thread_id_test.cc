// Tests of the dense-thread-id allocator: recycling under churn, distinctness
// among concurrently live threads, the id high-water that bounds the
// distributed RW lock's writer sweep, and the hard abort (instead of the old
// silent `% kMaxThreads` wrap that handed two live threads the same per-lock
// queue node) when the concurrent-liveness bound is exceeded.

#include "src/hlock/thread_id.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace {

TEST(ThreadId, StableWithinAThread) {
  const std::uint32_t a = hlock::CurrentThreadId();
  const std::uint32_t b = hlock::CurrentThreadId();
  EXPECT_EQ(a, b);
  EXPECT_LT(a, hlock::kMaxThreads);
}

// Many more short-lived threads than kMaxThreads: with id recycling every id
// stays in range and the process stays alive.  (Under the old wrap behavior
// this pattern silently aliased ids; under a recycle-free abort design it
// would kill the process.)
TEST(ThreadId, ChurnBeyondMaxThreadsRecyclesIds) {
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < hlock::kMaxThreads + 64; ++i) {
    std::uint32_t id = hlock::kMaxThreads;
    std::thread t([&id] { id = hlock::CurrentThreadId(); });
    t.join();
    ASSERT_LT(id, hlock::kMaxThreads) << "id out of range on iteration " << i;
    seen.insert(id);
  }
  // Sequential lifetimes: the freed id is reused, so only a handful of
  // distinct ids are ever handed out.
  EXPECT_LT(seen.size(), 16u);
}

// Concurrently live threads must all hold distinct ids.
TEST(ThreadId, ConcurrentThreadsGetDistinctIds) {
  constexpr int kThreads = 16;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool release = false;
  std::vector<std::uint32_t> ids(kThreads);

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ids[i] = hlock::CurrentThreadId();
      std::unique_lock<std::mutex> lk(mu);
      if (++arrived == kThreads) {
        cv.notify_all();
      }
      cv.wait(lk, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return arrived == kThreads; });
    release = true;
  }
  cv.notify_all();
  for (auto& t : threads) {
    t.join();
  }

  std::set<std::uint32_t> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads));
  for (std::uint32_t id : ids) {
    EXPECT_LT(id, hlock::kMaxThreads);
  }
}

// The CPUs this process may run on; the high-water tests start no more
// threads than that.
unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

// Every id a live thread holds is below the high-water, and the high-water
// never falls.
TEST(ThreadId, HighWaterExceedsEveryLiveId) {
  const std::uint32_t start = hlock::ThreadIdHighWater();
  const std::uint32_t main_id = hlock::CurrentThreadId();
  const unsigned n = std::min(UsableCpus(), 4u);
  std::mutex mu;
  std::condition_variable cv;
  unsigned arrived = 0;
  bool release = false;
  std::vector<std::uint32_t> ids(n);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ids[i] = hlock::CurrentThreadId();
      std::unique_lock<std::mutex> lk(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lk, [&] { return release; });
    });
  }
  std::uint32_t high_water = 0;
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return arrived == n; });
    high_water = hlock::ThreadIdHighWater();  // every thread still holds its id
    release = true;
  }
  cv.notify_all();
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_GE(high_water, start);
  EXPECT_LT(main_id, high_water);
  for (std::uint32_t id : ids) {
    EXPECT_LT(id, high_water);
  }
  EXPECT_LE(high_water, hlock::kMaxThreads);
  EXPECT_GE(hlock::ThreadIdHighWater(), high_water);
}

// A thread that takes a freed id does not raise the high-water: the bound
// counts ids issued, not threads started.
TEST(ThreadId, RecycledIdDoesNotRaiseHighWater) {
  std::uint32_t first = hlock::kMaxThreads;
  std::thread([&first] { first = hlock::CurrentThreadId(); }).join();
  const std::uint32_t before = hlock::ThreadIdHighWater();
  std::uint32_t second = hlock::kMaxThreads;
  std::uint32_t during = 0;
  std::thread([&] {
    second = hlock::CurrentThreadId();
    during = hlock::ThreadIdHighWater();
  }).join();
  EXPECT_EQ(second, first);  // the free list hands the last freed id back
  EXPECT_LT(second, before);
  EXPECT_EQ(during, before);
  EXPECT_EQ(hlock::ThreadIdHighWater(), before);
}

// Exceeding the bound with *concurrently live* threads must abort with a
// diagnostic rather than alias per-thread queue nodes.
TEST(ThreadIdDeathTest, TooManyLiveThreadsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        std::mutex mu;
        std::condition_variable cv;
        std::uint32_t arrived = 0;
        bool release = false;
        std::vector<std::thread> threads;
        // One more than the bound.  Every thread holds its id until all have
        // allocated — without the barrier, early threads could exit and
        // recycle their ids before late threads ask, and nothing would abort.
        for (std::uint32_t i = 0; i < hlock::kMaxThreads + 1; ++i) {
          threads.emplace_back([&] {
            (void)hlock::CurrentThreadId();  // thread kMaxThreads aborts here
            std::unique_lock<std::mutex> lk(mu);
            ++arrived;
            cv.notify_all();
            // Timed so a regression fails as "failed to die" instead of
            // hanging: the expected abort kills the process long before this.
            cv.wait_for(lk, std::chrono::seconds(30), [&] { return release; });
          });
        }
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait_for(lk, std::chrono::seconds(30),
                      [&] { return arrived == hlock::kMaxThreads + 1; });
          release = true;
        }
        cv.notify_all();
        for (auto& t : threads) {
          t.join();
        }
      },
      "concurrently live threads");
}

}  // namespace
