// The lock-site recording rule (hprof::SiteProbe), pinned once per lock that
// carries a site, on the simulated machine.
//
// Schedule: processor 0 (station 0) takes the lock and holds it; processor 4
// (station 1) arrives while it is held, waits, and is granted at the release.
// Every lock must then report the same numbers: two acquisitions, one of them
// contended, a wait and a hold sample each, a queue that was one waiter deep,
// one cross-cluster handoff, and one enqueue counted against the waiter's
// station.

#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/halloc/shared_pool.h"
#include "src/halloc/slab_core.h"
#include "src/hprof/lock_site.h"
#include "src/hsim/engine.h"
#include "src/hsim/locks/sim_backend.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {
namespace {

constexpr ProcId kHolder = 0;  // station 0
constexpr ProcId kWaiter = 4;  // station 1
constexpr Tick kArrival = 200;
constexpr Tick kHold = 5000;

enum class Site {
  kSpin,
  kMcs,
  kH1,
  kH2,
  kCna,
  kHmcsT,
  kFissile,
  kDrwWriter,
  kDrwReader,
  kSharedPool,
  kSlabDepot,
};

const char* SiteName(Site s) {
  switch (s) {
    case Site::kSpin:
      return "spin";
    case Site::kMcs:
      return "mcs";
    case Site::kH1:
      return "h1";
    case Site::kH2:
      return "h2";
    case Site::kCna:
      return "cna";
    case Site::kHmcsT:
      return "hmcs_t";
    case Site::kFissile:
      return "fissile";
    case Site::kDrwWriter:
      return "drw_writer";
    case Site::kDrwReader:
      return "drw_reader";
    case Site::kSharedPool:
      return "shared_pool";
    case Site::kSlabDepot:
      return "slab_depot";
  }
  return "?";
}

Task<void> HoldLock(Engine* engine, Processor* p, SimLock* lock, Tick at, Tick hold) {
  co_await engine->WaitUntil(at);
  co_await lock->Acquire(*p);
  co_await p->Compute(hold);
  co_await lock->Release(*p);
}

// The DRW reader side: the holder is a writer, the waiter a reader that finds
// the writer's flag up.  One site records both sides.
Task<void> ReadOnce(Engine* engine, Processor* p, SimDrwLock* lock, Tick at) {
  co_await engine->WaitUntil(at);
  co_await lock->core().AcquireShared(*p);
  co_await p->Compute(10);
  co_await lock->core().ReleaseShared(*p);
}

// The allocators' locks are internal: after `warm` allocations of its own,
// each processor allocates once more at `at`; the holder one tick ahead, so
// the waiter finds the lock taken.
template <class Alloc>
Task<void> AllocAt(Engine* engine, Processor* p, Alloc* alloc, int warm, Tick at) {
  for (int i = 0; i < warm; ++i) {
    co_await alloc->Alloc(*p);
  }
  co_await engine->WaitUntil(at);
  co_await alloc->Alloc(*p);
}

void RunSchedule(Site kind, hprof::LockSiteStats* site) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  Processor& holder = machine.processor(kHolder);
  Processor& waiter = machine.processor(kWaiter);
  SimBackend backend(&machine);
  std::unique_ptr<SimLock> lock;
  std::unique_ptr<halloc::SharedPoolCore<SimBackend>> pool;
  std::unique_ptr<halloc::SlabAllocatorCore<SimBackend>> slab;
  switch (kind) {
    case Site::kSpin:
      lock = MakeSimLock(&machine, LockKind::kSpin35us, 0);
      break;
    case Site::kMcs:
      lock = MakeSimLock(&machine, LockKind::kMcs, 0);
      break;
    case Site::kH1:
      lock = MakeSimLock(&machine, LockKind::kMcsH1, 0);
      break;
    case Site::kH2:
      lock = MakeSimLock(&machine, LockKind::kMcsH2, 0);
      break;
    case Site::kCna:
      lock = MakeSimLock(&machine, LockKind::kCna, 0);
      break;
    case Site::kHmcsT:
      lock = MakeSimLock(&machine, LockKind::kHmcsT, 0);
      break;
    case Site::kFissile:
      lock = MakeSimLock(&machine, LockKind::kFissile, 0);
      break;
    case Site::kDrwWriter:
    case Site::kDrwReader:
      lock = MakeSimLock(&machine, LockKind::kDrw, 0);
      break;
    case Site::kSharedPool:
      pool = std::make_unique<halloc::SharedPoolCore<SimBackend>>(&backend, /*capacity=*/8);
      pool->set_lock_site(site);
      engine.Spawn(AllocAt(&engine, &holder, pool.get(), /*warm=*/0, 0));
      engine.Spawn(AllocAt(&engine, &waiter, pool.get(), /*warm=*/0, 1));
      break;
    case Site::kSlabDepot: {
      halloc::SlabConfig cfg;
      cfg.objects_per_cluster = 8;
      cfg.magazine_size = 4;
      slab = std::make_unique<halloc::SlabAllocatorCore<SimBackend>>(&backend, cfg);
      slab->set_depot_site(site);
      // Draining the primed magazine first makes the next alloc a depot trip.
      engine.Spawn(AllocAt(&engine, &holder, slab.get(), cfg.magazine_size, kArrival));
      engine.Spawn(AllocAt(&engine, &waiter, slab.get(), cfg.magazine_size, kArrival + 1));
      break;
    }
  }
  if (kind == Site::kDrwReader) {
    auto* drw = static_cast<SimDrwLock*>(lock.get());
    drw->core().set_sites(site, site);
    engine.Spawn(HoldLock(&engine, &holder, lock.get(), 0, kHold));
    engine.Spawn(ReadOnce(&engine, &waiter, drw, kArrival));
  } else if (lock != nullptr) {
    lock->set_site(site);
    engine.Spawn(HoldLock(&engine, &holder, lock.get(), 0, kHold));
    engine.Spawn(HoldLock(&engine, &waiter, lock.get(), kArrival, 10));
  }
  engine.RunUntilIdle();
}

class SiteProbeContract : public ::testing::TestWithParam<Site> {};

TEST_P(SiteProbeContract, HolderThenWaiterOnAnotherStation) {
  hprof::LockSiteStats site(SiteName(GetParam()), /*procs_per_cluster=*/4);
  RunSchedule(GetParam(), &site);

  EXPECT_EQ(site.acquisitions(), 2u);
  EXPECT_EQ(site.contended(), 1u);
  EXPECT_EQ(site.wait().count(), 2u);
  EXPECT_EQ(site.hold().count(), 2u);
  EXPECT_EQ(site.max_queue_depth(), 1u);
  EXPECT_EQ(site.handoffs(hprof::Handoff::kCrossCluster), 1u);
  EXPECT_EQ(site.handoffs(hprof::Handoff::kSameCluster), 0u);
  EXPECT_EQ(site.handoffs(hprof::Handoff::kSameProcessor), 0u);
  ASSERT_EQ(site.by_cluster().count(1), 1u);
  EXPECT_EQ(site.by_cluster().at(1).enqueues, 1u);
  ASSERT_EQ(site.by_cluster().count(0), 1u);
  EXPECT_EQ(site.by_cluster().at(0).enqueues, 0u);
  // The waiter's wait covers the holder's remaining hold.
  EXPECT_GT(site.wait().max(), 0u);
}

INSTANTIATE_TEST_SUITE_P(EverySiteLock, SiteProbeContract,
                         ::testing::Values(Site::kSpin, Site::kMcs, Site::kH1, Site::kH2,
                                           Site::kCna, Site::kHmcsT, Site::kFissile,
                                           Site::kDrwWriter, Site::kDrwReader,
                                           Site::kSharedPool, Site::kSlabDepot),
                         [](const ::testing::TestParamInfo<Site>& info) {
                           return std::string(SiteName(info.param));
                         });

}  // namespace
}  // namespace hsim
