// End-to-end tests of the Section 4.2 stress harnesses: determinism, shape
// properties that the paper reports, and the barrier.

#include "src/hkernel/workloads.h"

#include <gtest/gtest.h>

#include "src/hsim/engine.h"
#include "src/hsim/machine.h"

namespace hkernel {
namespace {

TEST(WorkloadTest, IndependentTestIsDeterministic) {
  FaultTestParams params;
  params.active_procs = 6;
  params.warmup_time = hsim::UsToTicks(500);
  params.measure_time = hsim::UsToTicks(4000);
  FaultTestResult a = RunIndependentFaultTest(params);
  FaultTestResult b = RunIndependentFaultTest(params);
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
  EXPECT_EQ(a.duration, b.duration);
}

TEST(WorkloadTest, SharedTestIsDeterministic) {
  FaultTestParams params;
  params.cluster_size = 8;
  params.active_procs = 8;
  params.pages = 2;
  params.iterations = 2;
  params.warmup = 1;
  FaultTestResult a = RunSharedFaultTest(params);
  FaultTestResult b = RunSharedFaultTest(params);
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
}

TEST(WorkloadTest, IndependentLatencyRisesWithProcessors) {
  auto run = [](std::uint32_t p) {
    FaultTestParams params;
    params.active_procs = p;
    params.warmup_time = hsim::UsToTicks(1000);
    params.measure_time = hsim::UsToTicks(8000);
    return RunIndependentFaultTest(params).little_response_us();
  };
  const double p1 = run(1);
  const double p16 = run(16);
  EXPECT_GT(p16, p1 * 1.5);
  // The paper's single-fault reference: ~160 us.
  EXPECT_NEAR(p1, 160.0, 35.0);
}

TEST(WorkloadTest, SpinLocksMuchWorseThanDistributedAtFullContention) {
  // Figure 7a's headline: with 16 processors faulting, spin locks cost over
  // twice as much per fault as Distributed Locks.
  auto run = [](hsim::LockKind kind) {
    FaultTestParams params;
    params.lock_kind = kind;
    params.active_procs = 16;
    params.warmup_time = hsim::UsToTicks(2000);
    params.measure_time = hsim::UsToTicks(8000);
    return RunIndependentFaultTest(params).little_response_us();
  };
  const double dl = run(hsim::LockKind::kMcsH2);
  const double spin = run(hsim::LockKind::kSpin35us);
  EXPECT_GT(spin, dl * 2.0);
}

TEST(WorkloadTest, SmallClustersMatchFineGrainLockingForIndependentFaults) {
  // Figure 7c: with cluster size <= 4 the independent test does not degrade.
  auto run = [](std::uint32_t cs) {
    FaultTestParams params;
    params.cluster_size = cs;
    params.active_procs = 16;
    params.warmup_time = hsim::UsToTicks(2000);
    params.measure_time = hsim::UsToTicks(8000);
    return RunIndependentFaultTest(params).little_response_us();
  };
  const double cs1 = run(1);
  const double cs4 = run(4);
  const double cs16 = run(16);
  EXPECT_LT(cs4, cs1 * 1.25);   // flat up to cluster size 4
  EXPECT_GT(cs16, cs4 * 2.0);   // one big cluster degrades badly
}

TEST(WorkloadTest, SharedTestNarrowsTheLockKindGap) {
  // Figure 7b: contention moves to the reserve bits, so the DL-vs-spin gap is
  // much smaller than in the independent test.
  auto run = [](hsim::LockKind kind) {
    FaultTestParams params;
    params.lock_kind = kind;
    params.cluster_size = 16;
    params.active_procs = 16;
    params.pages = 4;
    params.iterations = 4;
    params.warmup = 1;
    return RunSharedFaultTest(params).latency.mean_us();
  };
  const double dl = run(hsim::LockKind::kMcsH2);
  const double spin = run(hsim::LockKind::kSpin35us);
  EXPECT_GT(spin, dl);             // spin still loses...
  EXPECT_LT(spin, dl * 2.0);       // ...but by much less than in Figure 7a
}

TEST(WorkloadTest, ModerateClustersBestForSharedFaults) {
  // Figure 7d: very small clusters pay for inter-cluster RPCs, one big
  // cluster pays lock/reserve contention; the middle wins.
  auto run = [](std::uint32_t cs) {
    FaultTestParams params;
    params.cluster_size = cs;
    params.active_procs = 16;
    params.pages = 4;
    params.iterations = 4;
    params.warmup = 1;
    return RunSharedFaultTest(params).latency.mean_us();
  };
  const double cs1 = run(1);
  const double cs4 = run(4);
  const double cs16 = run(16);
  EXPECT_LT(cs4, cs1 * 0.5);  // RPC overhead dominates tiny clusters
  EXPECT_LT(cs4, cs16);       // contention penalizes the single big cluster
}

TEST(WorkloadTest, MixedWorkloadTerminatesAndRecordsBothSides) {
  FaultTestParams params;
  params.cluster_size = 4;
  params.active_procs = 8;
  params.pages = 4;
  params.iterations = 2;
  params.warmup = 1;
  params.warmup_time = hsim::UsToTicks(500);
  FaultTestResult r = RunMixedFaultTest(params);
  // The SPMD side alone contributes 4 procs x 2 rounds x 4 pages = 32
  // recorded faults; the independent side adds more.
  EXPECT_GT(r.latency.count(), 32u);
  EXPECT_GT(r.counters.unmaps, 0u);
}

TEST(WorkloadTest, MixedWorkloadIsDeterministic) {
  FaultTestParams params;
  params.cluster_size = 4;
  params.active_procs = 8;
  params.iterations = 2;
  params.warmup = 1;
  params.warmup_time = hsim::UsToTicks(500);
  FaultTestResult a = RunMixedFaultTest(params);
  FaultTestResult b = RunMixedFaultTest(params);
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
}

// Pins the simulated schedule of a small mixed run, transit jitter included:
// the final tick and the number of engine events.  Changing how a hold or a
// delay is awaited must leave both alone; an extra suspension or a reordered
// reservation moves them.
TEST(WorkloadTest, MixedWorkloadSchedulePin) {
  FaultTestParams params;
  params.cluster_size = 4;
  params.active_procs = 16;
  params.iterations = 2;
  params.warmup = 1;
  params.warmup_time = hsim::UsToTicks(500);
  params.faults.delay_request = 0.02;
  params.faults.delay_reply = 0.02;
  params.faults.seed = 1;
  const FaultTestResult r = RunMixedFaultTest(params);
  EXPECT_EQ(r.duration, 213447u);
  EXPECT_EQ(r.events, 130142u);
}

TEST(WorkloadTest, BarrierReleasesAllParties) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  KernelConfig config;
  KernelSystem system(&machine, config);
  SimBarrier barrier(&system, 5);
  int released = 0;
  for (hsim::ProcId p = 0; p < 5; ++p) {
    engine.Spawn([](KernelSystem* sys, SimBarrier* b, hsim::ProcId self,
                    int* counter) -> hsim::Task<void> {
      hsim::Processor& proc = sys->machine().processor(self);
      co_await proc.Compute(100 * (self + 1));  // staggered arrivals
      co_await b->Wait(proc);
      ++*counter;
    }(&system, &barrier, p, &released));
  }
  engine.RunUntilIdle();
  EXPECT_EQ(released, 5);
}

TEST(WorkloadTest, LockOverheadIsAboutAQuarterOfUncontendedFault) {
  // Section 1: 160 us fault, 40 us attributable to locking.
  FaultTestParams params;
  params.cluster_size = 4;
  params.active_procs = 1;
  params.warmup_time = hsim::UsToTicks(500);
  params.measure_time = hsim::UsToTicks(4000);
  FaultTestResult r = RunIndependentFaultTest(params);
  const double ratio = r.lock_overhead.mean_us() / r.latency.mean_us();
  EXPECT_GT(ratio, 0.15);
  EXPECT_LT(ratio, 0.35);
}

}  // namespace
}  // namespace hkernel
