// Tests for the fault path: calibration points, replication, combining,
// reserve-bit serialization, reference counts, and unmapping.

#include "src/hkernel/kernel.h"

#include <gtest/gtest.h>

#include <string>

#include "src/hkernel/workloads.h"
#include "src/hprof/lock_site.h"
#include "src/hsim/engine.h"
#include "src/hsim/locks/reserve_bit.h"
#include "src/hsim/machine.h"

namespace hkernel {
namespace {

struct Rig {
  hsim::Engine engine;
  hsim::Machine machine;
  KernelSystem system;
  bool stop = false;

  explicit Rig(std::uint32_t cluster_size, hsim::LockKind kind = hsim::LockKind::kMcsH2)
      : machine(&engine, hsim::MachineConfig{}), system(&machine, [&] {
          KernelConfig c;
          c.cluster_size = cluster_size;
          c.lock_kind = kind;
          return c;
        }()) {}

  void IdleFrom(hsim::ProcId first) {
    for (hsim::ProcId p = first; p < machine.num_processors(); ++p) {
      engine.Spawn(system.IdleLoop(machine.processor(p), &stop));
    }
  }
};

TEST(CalibrationTest, MatchesPaperReferencePoints) {
  CalibrationResult r = RunCalibration(hsim::LockKind::kMcsH2);
  // Paper: simple fault 160 us with 40 us of locking; null RPC 27 us;
  // cluster-wide lookup + replicate 88 us.  Within 20%.
  EXPECT_NEAR(r.fault_us, 160.0, 32.0);
  EXPECT_NEAR(r.fault_lock_us, 40.0, 8.0);
  EXPECT_NEAR(r.null_rpc_us, 27.0, 5.4);
  EXPECT_NEAR(r.replicate_us, 88.0, 17.6);
}

TEST(FaultTest, LocalFaultDoesNotReplicateOrRpc) {
  Rig rig(4);
  Program& prog = rig.system.CreateProgram();
  FaultOutcome out;
  rig.engine.Spawn([](Rig* r, Program* pr, FaultOutcome* o) -> hsim::Task<void> {
    co_await r->system.PageFault(r->machine.processor(0), *pr,
                                 KernelSystem::MakePage(0, 1), o);
  }(&rig, &prog, &out));
  rig.engine.RunUntilIdle();
  EXPECT_FALSE(out.replicated);
  EXPECT_EQ(rig.system.counters().rpcs, 0u);
  EXPECT_EQ(rig.system.counters().replications, 0u);
  EXPECT_GT(out.total, 0u);
  EXPECT_GT(out.lock_cycles, 0u);
  EXPECT_LT(out.lock_cycles, out.total);
}

TEST(FaultTest, RemoteFaultReplicatesOnceThenIsLocal) {
  Rig rig(4);
  rig.IdleFrom(0);
  Program& prog = rig.system.CreateProgram();
  FaultOutcome first;
  FaultOutcome second;
  rig.engine.Spawn([](Rig* r, Program* pr, FaultOutcome* f1,
                      FaultOutcome* f2) -> hsim::Task<void> {
    // Page homed on processor 4 (cluster 1); the faulting processor is in
    // cluster 0.
    const std::uint64_t page = KernelSystem::MakePage(4, 9);
    co_await r->system.PageFault(r->machine.processor(0), *pr, page, f1);
    co_await r->system.PageFault(r->machine.processor(0), *pr, page, f2);
    r->stop = true;
  }(&rig, &prog, &first, &second));
  rig.engine.RunUntilIdle();
  EXPECT_TRUE(first.replicated);
  EXPECT_FALSE(second.replicated);
  EXPECT_EQ(rig.system.counters().replications, 1u);
  EXPECT_GT(first.total, second.total);
  // The home cluster recorded cluster 0 as a replica holder.
  ClusterKernel& home = rig.system.cluster(1);
  EXPECT_GT(home.table().live(), 0u);
}

TEST(FaultTest, ClusterPeersCombineOnOneReplication) {
  // Four processors of cluster 0 fault simultaneously on the same remote
  // page: only one GET_PAGE replication happens; the others wait on the local
  // replica shell's reserve bit.
  Rig rig(4);
  rig.IdleFrom(0);
  Program& prog = rig.system.CreateProgram();
  int done = 0;
  for (hsim::ProcId p = 0; p < 4; ++p) {
    rig.engine.Spawn([](Rig* r, Program* pr, hsim::ProcId self, int* counter) -> hsim::Task<void> {
      co_await r->system.PageFault(r->machine.processor(self), *pr,
                                   KernelSystem::MakePage(/*home_proc=*/5, 3), nullptr);
      if (++*counter == 4) {
        r->stop = true;
      }
    }(&rig, &prog, p, &done));
  }
  rig.engine.RunUntilIdle();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(rig.system.counters().replications, 1u);
  EXPECT_GE(rig.system.counters().reserve_waits, 1u);
}

TEST(FaultTest, ReserveBitSerializesFaultsOnOnePage) {
  // All four processors of one cluster fault on the same local page: the
  // mapping work is serialized by the descriptor's reserve bit, so the
  // elapsed time covers everyone's map work back to back.
  Rig rig(4);
  rig.IdleFrom(0);
  Program& prog = rig.system.CreateProgram();
  int done = 0;
  for (hsim::ProcId p = 0; p < 4; ++p) {
    rig.engine.Spawn([](Rig* r, Program* pr, hsim::ProcId self, int* counter) -> hsim::Task<void> {
      co_await r->system.PageFault(r->machine.processor(self), *pr,
                                   KernelSystem::MakePage(0, 0), nullptr);
      if (++*counter == 4) {
        r->stop = true;
      }
    }(&rig, &prog, p, &done));
  }
  const hsim::Tick elapsed = rig.engine.RunUntilIdle();
  EXPECT_EQ(done, 4);
  EXPECT_GE(rig.system.counters().reserve_waits, 3u);
  // At least 4x the per-fault map work must have elapsed.
  KernelConfig cfg;
  EXPECT_GT(elapsed, 4 * cfg.fault_mapwork);
}

TEST(FaultTest, RefCountTracksMappings) {
  Rig rig(4);
  Program& prog = rig.system.CreateProgram();
  rig.engine.Spawn([](Rig* r, Program* pr) -> hsim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await r->system.PageFault(r->machine.processor(0), *pr,
                                   KernelSystem::MakePage(0, 5), nullptr);
    }
  }(&rig, &prog));
  rig.engine.RunUntilIdle();
  // Find the descriptor and check its (cluster-local) reference count.
  ClusterKernel& c = rig.system.cluster(0);
  bool checked = false;
  rig.engine.Spawn([](Rig* r, ClusterKernel* ck, bool* done) -> hsim::Task<void> {
    DescRef ref = co_await ck->table().Lookup(r->machine.processor(0),
                                              KernelSystem::MakePage(0, 5));
    EXPECT_NE(ref, kNilDesc);
    EXPECT_EQ(ck->table().desc(ref).ref_count().value, 3u);
    *done = true;
  }(&rig, &c, &checked));
  rig.engine.RunUntilIdle();
  EXPECT_TRUE(checked);
}

TEST(UnmapTest, InvalidatesRemoteReplicas) {
  Rig rig(4);
  rig.IdleFrom(0);
  Program& prog = rig.system.CreateProgram();
  rig.engine.Spawn([](Rig* r, Program* pr) -> hsim::Task<void> {
    const std::uint64_t page = KernelSystem::MakePage(0, 2);
    // Home fault on P0, replica faults from clusters 1 and 2.
    co_await r->system.PageFault(r->machine.processor(0), *pr, page, nullptr);
    co_await r->system.PageFault(r->machine.processor(1), *pr, page, nullptr);
    r->stop = true;
  }(&rig, &prog));
  rig.engine.RunUntilIdle();

  Rig rig2(4);
  rig2.IdleFrom(0);
  Program& prog2 = rig2.system.CreateProgram();
  bool checked = false;
  rig2.engine.Spawn([](Rig* r, Program* pr, bool* done) -> hsim::Task<void> {
    const std::uint64_t page = KernelSystem::MakePage(0, 2);
    FaultOutcome remote1;
    FaultOutcome remote2;
    co_await r->system.PageFault(r->machine.processor(4), *pr, page, &remote1);
    co_await r->system.PageFault(r->machine.processor(5), *pr, page, &remote2);
    EXPECT_TRUE(remote1.replicated);
    EXPECT_FALSE(remote2.replicated);  // cluster 1 already has the replica
    EXPECT_EQ(r->system.cluster(1).table().live(), 1u);

    // Unmap from the home cluster: the replica must disappear.
    co_await r->system.UnmapGlobal(r->machine.processor(0), page);
    EXPECT_EQ(r->system.cluster(1).table().live(), 0u);
    EXPECT_GE(r->system.counters().invalidations, 1u);

    // A new fault in cluster 1 re-replicates.
    FaultOutcome refault;
    co_await r->system.PageFault(r->machine.processor(4), *pr, page, &refault);
    EXPECT_TRUE(refault.replicated);
    *done = true;
    r->stop = true;
  }(&rig2, &prog2, &checked));
  rig2.engine.RunUntilIdle();
  EXPECT_TRUE(checked);
}

TEST(GlobalUpdateTest, BroadcastsToReplicas) {
  Rig rig(4);
  rig.IdleFrom(0);
  Program& prog = rig.system.CreateProgram();
  bool checked = false;
  rig.engine.Spawn([](Rig* r, Program* pr, bool* done) -> hsim::Task<void> {
    const std::uint64_t page = KernelSystem::MakePage(0, 3);
    co_await r->system.PageFault(r->machine.processor(0), *pr, page, nullptr);
    co_await r->system.PageFault(r->machine.processor(4), *pr, page, nullptr);
    co_await r->system.GlobalUpdate(r->machine.processor(0), page, 0xBEEF);

    DescRef home = co_await r->system.cluster(0).table().Lookup(r->machine.processor(0), page);
    DescRef replica = co_await r->system.cluster(1).table().Lookup(r->machine.processor(4), page);
    EXPECT_NE(home, kNilDesc);
    EXPECT_NE(replica, kNilDesc);
    EXPECT_EQ(r->system.cluster(0).table().desc(home).payload(0).value, 0xBEEFu);
    EXPECT_EQ(r->system.cluster(1).table().desc(replica).payload(0).value, 0xBEEFu);
    *done = true;
    r->stop = true;
  }(&rig, &prog, &checked));
  rig.engine.RunUntilIdle();
  EXPECT_TRUE(checked);
}

TEST(ProgramTest, RegionReplicasAreSpreadAcrossModules) {
  Rig rig(16);
  Program& p0 = rig.system.CreateProgram();
  Program& p1 = rig.system.CreateProgram();
  // Different programs' region structures live on different modules of the
  // (single) cluster, so independent programs do not collide.
  EXPECT_NE(p0.region_word(0, 0).home, p1.region_word(0, 0).home);
}

TEST(FaultTest, LockProfilerAttributesKernelLocks) {
  // An unprofiled baseline first: attaching sites must not move a single
  // simulated tick.
  hsim::Tick bare_total = 0;
  {
    Rig rig(4);
    Program& prog = rig.system.CreateProgram();
    FaultOutcome out;
    rig.engine.Spawn([](Rig* r, Program* pr, FaultOutcome* o) -> hsim::Task<void> {
      co_await r->system.PageFault(r->machine.processor(0), *pr,
                                   KernelSystem::MakePage(0, 1), o);
    }(&rig, &prog, &out));
    rig.engine.RunUntilIdle();
    bare_total = out.total;
  }

  Rig rig(4);
  hprof::SiteTable sites(16.0);
  rig.system.AttachLockProfiler(&sites);
  // 4 clusters: one page-table site each, then the two allocator depot locks
  // (descriptor arena and RPC packet pool), then one region site per cluster
  // for the program created after attachment.
  Program& prog = rig.system.CreateProgram();
  ASSERT_EQ(sites.size(), 10u);
  EXPECT_EQ(sites.site(0).name(), "cluster0/page-table");
  EXPECT_EQ(sites.site(4).name(), "kernel/desc-depot");
  EXPECT_EQ(sites.site(5).name(), "kernel/rpc-packet-depot");
  EXPECT_EQ(sites.site(6).name(), "program0/cluster0/region");

  FaultOutcome out;
  rig.engine.Spawn([](Rig* r, Program* pr, FaultOutcome* o) -> hsim::Task<void> {
    co_await r->system.PageFault(r->machine.processor(0), *pr,
                                 KernelSystem::MakePage(0, 1), o);
  }(&rig, &prog, &out));
  rig.engine.RunUntilIdle();
  EXPECT_EQ(out.total, bare_total);

  // The local fault's locking lands on cluster 0's sites; the wait/hold
  // histograms carry the simulated ticks the fault spent under the locks.
  std::uint64_t recorded = 0;
  std::uint64_t hold_ticks = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    recorded += sites.site(i).acquisitions();
    hold_ticks += sites.site(i).hold().sum();
    if (sites.site(i).acquisitions() > 0) {
      EXPECT_TRUE(sites.site(i).name().find("cluster0") != std::string::npos)
          << sites.site(i).name();
    }
  }
  EXPECT_GT(recorded, 0u);
  EXPECT_GT(hold_ticks, 0u);
}

}  // namespace
}  // namespace hkernel
