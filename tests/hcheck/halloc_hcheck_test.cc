// Model-checks the slab allocator core (halloc::SlabAllocatorCore) on the
// hcheck weak-memory model.  The interesting edge is the depot: a magazine
// filled by one cluster (under that cluster's cache lock) is published to the
// next cluster that pops it from the depot by exactly one release store --
// the depot unlock.  The correct core crosses that edge cleanly; the
// deliberately broken knobs prove the checker can see both failure modes:
//
//   kBrokenDepotRelease  the depot unlock is demoted to relaxed, so a
//                        consumer on another cluster can pop a full magazine
//                        and read its count/rounds (or the slab cursors)
//                        stale -- manifesting as a wrong ref, a phantom
//                        exhaustion, or a double carve.
//   kBrokenCountSkew     the magazine pop decrements the round count twice,
//                        wrapping it on an odd magazine; the count range
//                        Check fires deterministically a few operations in.
//
// Geometry used by the publish tests: 2 clusters, objects_per_cluster = 2,
// magazine_size = 1.  Cluster 0 owns refs {1, 2} (loaded magazine primed
// with 1, slab cursor at 2); cluster 1 owns refs {3, 4} (primed with 3,
// cursor at 4).  Thread 0 (cluster 0) allocates 1 (fast), 2 (depot carve),
// and 4 (depot steal from cluster 1's range), then frees all three; with
// magazine_size 1 the third free forces a free-side depot trip that pushes a
// FULL magazine holding ref 1 onto the depot.  Thread 1 (cluster 1), gated
// to run after all of that by a RELAXED flag (deliberately no happens-before
// edge -- the depot unlock must provide it), allocates 3 from its own primed
// magazine and then takes a depot trip that must pop that full magazine and
// return ref 1.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/halloc/slab_allocator.h"
#include "src/halloc/slab_core.h"
#include "src/hcheck/checker.h"
#include "src/hcheck/platform.h"

namespace {

using AB = halloc::AllocBackend<hcheck::Platform>;
using Core = halloc::SlabAllocatorCore<AB>;
using halloc::AllocBroken;
using halloc::SlabConfig;

constexpr std::uint64_t kNil = Core::kNil;

typename AB::Ctx Self() { return typename AB::Ctx{hcheck::Platform::ThreadId()}; }

// The cross-cluster publish script described in the file comment,
// parameterized by the broken knob so the correct run and the severed-edge
// run are the same program.
hcheck::Result CheckCrossClusterPublish(AllocBroken broken) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  return hcheck::Check(opts, [broken] {
    auto backend = std::make_shared<AB>(/*num_clusters=*/2);
    backend->RegisterCtx(0, 0);  // main thread: cluster 0
    backend->RegisterCtx(1, 1);  // spawned consumer: cluster 1
    SlabConfig cfg;
    cfg.objects_per_cluster = 2;
    cfg.magazine_size = 1;
    cfg.broken = broken;
    auto core = std::make_shared<Core>(backend.get(), cfg);
    // Relaxed on purpose: the gate orders the *schedule* (the consumer's
    // depot trip happens after the producer's) but contributes no
    // happens-before edge, so magazine visibility rests entirely on the
    // depot lock's release/acquire pair -- the edge under test.
    auto go = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread consumer = hcheck::Spawn([core, go] {
      auto ctx = Self();  // thread id 1: cluster 1
      // Own primed magazine: fast path, no depot involvement.
      const std::uint64_t r1 = core->Alloc(ctx);
      HCHECK_ASSERT(r1 == 3);
      while (go->load(std::memory_order_relaxed) == 0) {
        hcheck::Yield();
      }
      // Depot trip: must pop the full magazine the producer published and
      // hand out ref 1.  With the broken depot release the count, the round,
      // or the slab cursors read stale here, and r2 comes back as kNil
      // (phantom exhaustion), 2, or 4 instead.
      const std::uint64_t r2 = core->Alloc(ctx);
      HCHECK_ASSERT(r2 == 1);
    });
    auto ctx = Self();  // thread id 0: cluster 0
    const std::uint64_t a = core->Alloc(ctx);  // primed fast path
    const std::uint64_t b = core->Alloc(ctx);  // depot carve of own range
    const std::uint64_t c = core->Alloc(ctx);  // depot steal of ref 4
    HCHECK_ASSERT(a == 1);
    HCHECK_ASSERT(b == 2);
    HCHECK_ASSERT(c == 4);
    core->Free(ctx, a);  // fast: loaded magazine now {1}
    core->Free(ctx, b);  // loaded/previous exchange
    core->Free(ctx, c);  // depot trip: pushes the full magazine {1}
    go->store(1, std::memory_order_relaxed);
    consumer.Join();
  });
}

TEST(HallocHcheck, CrossClusterMagazinePublish) {
  hcheck::Result res = CheckCrossClusterPublish(AllocBroken::kNone);
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

TEST(HallocHcheck, BrokenDepotReleaseCaught) {
  hcheck::Result res = CheckCrossClusterPublish(AllocBroken::kBrokenDepotRelease);
  EXPECT_TRUE(res.failed)
      << "hcheck failed to catch the relaxed depot unlock publishing a stale magazine";
}

// Single cluster, objects_per_cluster = 4, magazine_size = 2: the loaded
// magazine is primed with {1, 2}.  The same five-operation script runs
// single-threaded under both knobs; with the skew every pop decrements the
// count by two, so popping from a magazine holding one round wraps the count
// and the very next pop trips the "magazine count out of range" Check.
TEST(HallocHcheck, CountSkewTwinScriptPassesWhenCorrect) {
  hcheck::Options opts;
  opts.max_schedules = 1000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<AB>(/*num_clusters=*/1);
    backend->RegisterCtx(0, 0);
    SlabConfig cfg;
    cfg.objects_per_cluster = 4;
    cfg.magazine_size = 2;
    auto core = std::make_shared<Core>(backend.get(), cfg);
    auto ctx = Self();
    // Rounds pop top-down, so the primed {1, 2} magazine hands out 2 then 1.
    HCHECK_ASSERT(core->Alloc(ctx) == 2);
    HCHECK_ASSERT(core->Alloc(ctx) == 1);
    core->Free(ctx, 2);
    HCHECK_ASSERT(core->Alloc(ctx) == 2);
    // Both magazines empty: depot carve of {3, 4}, topmost round first.
    HCHECK_ASSERT(core->Alloc(ctx) == 4);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

TEST(HallocHcheck, BrokenCountSkewCaught) {
  hcheck::Options opts;
  opts.max_schedules = 1000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<AB>(/*num_clusters=*/1);
    backend->RegisterCtx(0, 0);
    SlabConfig cfg;
    cfg.objects_per_cluster = 4;
    cfg.magazine_size = 2;
    cfg.broken = AllocBroken::kBrokenCountSkew;
    auto core = std::make_shared<Core>(backend.get(), cfg);
    auto ctx = Self();
    // Same shape as the twin above.  The skewed pops leak ref 1 (count 2 -> 0
    // after handing out only ref 2) and ref 3; the free then leaves the
    // loaded magazine at count 1, the next pop wraps it to ~2^64, and the pop
    // after that fails the range Check.
    const std::uint64_t a = core->Alloc(ctx);
    HCHECK_ASSERT(a == 2);
    const std::uint64_t b = core->Alloc(ctx);
    HCHECK_ASSERT(b == 4);
    core->Free(ctx, a);
    core->Alloc(ctx);  // pops 2 again; count wraps below zero
    core->Alloc(ctx);  // range Check fires
  });
  EXPECT_TRUE(res.failed)
      << "hcheck failed to catch the magazine count wrapping under the skewed pop";
}

// Two clusters hammering alloc/free concurrently, including depot steals once
// cluster 0 exhausts its two-ref range: the host-side double-alloc /
// double-free tracking asserts every schedule hands out each ref at most
// once, and the count/range Checks guard the magazines.
TEST(HallocHcheck, ConcurrentAllocFreeNoDoubleAlloc) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<AB>(/*num_clusters=*/2);
    backend->RegisterCtx(0, 0);
    backend->RegisterCtx(1, 1);
    SlabConfig cfg;
    cfg.objects_per_cluster = 2;
    cfg.magazine_size = 1;
    auto core = std::make_shared<Core>(backend.get(), cfg);
    auto worker = [core] {
      auto ctx = Self();
      for (int i = 0; i < 2; ++i) {
        const std::uint64_t ref = core->Alloc(ctx);
        if (ref != kNil) {
          HCHECK_ASSERT(ref >= 1 && ref <= core->capacity());
          core->Free(ctx, ref);
        }
      }
    };
    hcheck::Thread t = hcheck::Spawn(worker);
    worker();
    t.Join();
    const halloc::CacheStats total = core->TotalCacheStats();
    HCHECK_ASSERT(total.allocs() == total.frees());
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

}  // namespace
