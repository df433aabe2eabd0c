// Native-backend tests for the halloc slab allocator: the typed arena
// wrapper, per-cluster ref ranges and depot steals, exhaustion behaviour,
// the shared-pool baseline it is benchmarked against, and the hprof depot
// site.  Model-checked interleaving coverage lives in
// tests/hcheck/halloc_hcheck_test.cc; simulated-NUMA locality coverage in
// tests/halloc/slab_sim_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "src/halloc/shared_pool.h"
#include "src/halloc/slab_allocator.h"
#include "src/halloc/slab_core.h"
#include "src/hlock/algo/native_backend.h"
#include "src/hprof/lock_site.h"

namespace {

using halloc::SlabAllocator;
using halloc::SlabConfig;

TEST(SlabAllocator, RoundTripsObjectsThroughTheArena) {
  SlabConfig cfg;
  cfg.objects_per_cluster = 8;
  cfg.magazine_size = 4;
  SlabAllocator<int> pool(/*num_clusters=*/1, cfg);
  EXPECT_EQ(pool.capacity(), 8u);

  std::set<int*> seen;
  std::vector<int*> held;
  for (int i = 0; i < 8; ++i) {
    int* p = pool.AllocFor(/*ctx_id=*/0);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "same object handed out twice";
    *p = i;
    held.push_back(p);
  }
  for (int* p : held) {
    pool.FreeFor(0, p);
  }
  // Freed objects come back; pointers stay inside the arena.
  int* again = pool.AllocFor(0);
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(seen.count(again) == 1);
  pool.FreeFor(0, again);

  const halloc::CacheStats total = pool.core().TotalCacheStats();
  EXPECT_EQ(total.allocs(), 9u);
  EXPECT_EQ(total.frees(), 9u);
  EXPECT_EQ(total.alloc_fail, 0u);
}

TEST(SlabAllocator, ExhaustionReturnsNullThenRecovers) {
  SlabConfig cfg;
  cfg.objects_per_cluster = 4;
  cfg.magazine_size = 2;
  SlabAllocator<int> pool(1, cfg);

  std::vector<int*> held;
  for (std::uint64_t i = 0; i < pool.capacity(); ++i) {
    int* p = pool.AllocFor(0);
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  EXPECT_EQ(pool.AllocFor(0), nullptr);
  EXPECT_EQ(pool.AllocFor(0), nullptr);
  EXPECT_EQ(pool.core().TotalCacheStats().alloc_fail, 2u);

  pool.FreeFor(0, held.back());
  held.pop_back();
  int* p = pool.AllocFor(0);
  EXPECT_NE(p, nullptr);
}

// Refs are partitioned into per-cluster ranges: a cluster drains its own
// range first (primed magazine, then lazy carve) and only then steals from
// the other cluster's uncarved tail.  The victim cluster still gets its
// primed magazine, and the pool as a whole still hands out exactly
// `capacity` objects before failing.
TEST(SlabAllocator, OwnRangeFirstThenDepotSteal) {
  SlabConfig cfg;
  cfg.objects_per_cluster = 8;
  cfg.magazine_size = 4;
  SlabAllocator<int> pool(/*num_clusters=*/2, cfg);
  pool.RegisterCtx(0, 0);
  pool.RegisterCtx(1, 1);
  const auto& core = pool.core();

  // Cluster 0 allocates 12: its own 8, then 4 stolen from cluster 1's range.
  std::vector<int*> held;
  for (int i = 0; i < 12; ++i) {
    int* p = pool.AllocFor(0);
    ASSERT_NE(p, nullptr);
    const std::uint64_t ref = static_cast<std::uint64_t>(p - &pool.object(1)) + 1;
    EXPECT_EQ(core.HomeClusterOf(ref), i < 8 ? 0u : 1u) << "alloc #" << i;
    held.push_back(p);
  }
  EXPECT_GE(core.depot_stats().steals, 1u);

  // Cluster 1 still owns its primed magazine: 4 more allocs, all home-range.
  for (int i = 0; i < 4; ++i) {
    int* p = pool.AllocFor(1);
    ASSERT_NE(p, nullptr);
    const std::uint64_t ref = static_cast<std::uint64_t>(p - &pool.object(1)) + 1;
    EXPECT_EQ(core.HomeClusterOf(ref), 1u);
    held.push_back(p);
  }
  // 16 of 16 live: exhausted for everyone.
  EXPECT_EQ(pool.AllocFor(1), nullptr);
  EXPECT_EQ(pool.AllocFor(0), nullptr);
  for (int* p : held) {
    pool.FreeFor(0, p);
  }
}

TEST(SlabAllocator, ThreadedAllocFreeSmoke) {
  SlabConfig cfg;
  cfg.objects_per_cluster = 64;
  cfg.magazine_size = 8;
  auto pool = std::make_unique<SlabAllocator<std::uint64_t>>(/*num_clusters=*/2, cfg);
  constexpr int kIters = 2000;
  auto worker = [&pool](std::uint32_t cluster) {
    pool->RegisterThread(cluster);
    for (int i = 0; i < kIters; ++i) {
      std::uint64_t* p = pool->Alloc();
      // One live object per thread against 128 capacity: never exhausts.
      ASSERT_NE(p, nullptr);
      *p = cluster;
      pool->Free(p);
    }
  };
  std::thread t0(worker, 0);
  std::thread t1(worker, 1);
  t0.join();
  t1.join();
  const halloc::CacheStats total = pool->core().TotalCacheStats();
  EXPECT_EQ(total.allocs(), 2u * kIters);
  EXPECT_EQ(total.frees(), 2u * kIters);
  EXPECT_EQ(total.alloc_fail, 0u);
}

// The shared-free-list baseline the slab design replaces (and that
// bench/alloc_scaling races it against): same ref contract, one global
// stack.
TEST(SharedPool, BaselineRefContract) {
  using B = hlock::algo::NativeBackend<hlock::StdPlatform>;
  B backend(/*procs_per_cluster=*/1);
  halloc::SharedPoolCore<B> pool(&backend, /*capacity=*/3);
  typename B::Ctx ctx{0};

  // Low refs first, same as the slab core's carve order.
  EXPECT_EQ(pool.Alloc(ctx), 1u);
  EXPECT_EQ(pool.Alloc(ctx), 2u);
  EXPECT_EQ(pool.Alloc(ctx), 3u);
  EXPECT_EQ(pool.Alloc(ctx), halloc::SharedPoolCore<B>::kNil);
  EXPECT_EQ(pool.fails(), 1u);
  pool.Free(ctx, 2);
  EXPECT_EQ(pool.Alloc(ctx), 2u);  // LIFO
  EXPECT_EQ(pool.allocs(), 4u);
  EXPECT_EQ(pool.frees(), 1u);
}

// Depot trips show up on an attached hprof site like any other lock:
// acquisitions counted, hold times recorded, acquirer attributed to its true
// cluster for the handoff matrix.
TEST(SlabAllocator, DepotSiteRecordsAcquisitionsWithClusterAttribution) {
  SlabConfig cfg;
  cfg.objects_per_cluster = 8;
  cfg.magazine_size = 2;
  SlabAllocator<int> pool(/*num_clusters=*/2, cfg);
  pool.RegisterCtx(0, 0);
  pool.RegisterCtx(1, 1);
  hprof::LockSiteStats site("test/depot", /*procs_per_cluster=*/1);
  pool.set_depot_site(&site);

  // Drain past each cluster's primed magazine so both take depot trips.
  std::vector<int*> held;
  for (int i = 0; i < 6; ++i) {
    held.push_back(pool.AllocFor(0));
    held.push_back(pool.AllocFor(1));
  }
  for (int* p : held) {
    ASSERT_NE(p, nullptr);
  }
  EXPECT_GE(site.acquisitions(), 2u);
  EXPECT_EQ(site.hold().count(), site.acquisitions());
  ASSERT_EQ(site.by_cluster().size(), 2u);
  EXPECT_GE(site.by_cluster().at(0).acquisitions, 1u);
  EXPECT_GE(site.by_cluster().at(1).acquisitions, 1u);
  // Sequential single-thread trips: every owner change is a cross-cluster
  // handoff in the matrix (clusters 0 and 1 alternate).
  const std::uint64_t transitions = site.acquisitions() - 1;
  EXPECT_EQ(site.handoffs(hprof::Handoff::kSameProcessor) +
                site.handoffs(hprof::Handoff::kSameCluster) +
                site.handoffs(hprof::Handoff::kCrossCluster),
            transitions);
  EXPECT_GE(site.handoffs(hprof::Handoff::kCrossCluster), 1u);
  for (int* p : held) {
    pool.FreeFor(0, p);
  }
}

}  // namespace
