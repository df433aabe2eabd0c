// Unit tests for LockSiteStats/SiteTable plus the profiled Figure-5
// contention scenario: handoff classification, contention accounting, queue
// depth, the lockprof JSON export, and -- the acceptance bar for the hooks --
// that attaching (or not attaching) sites leaves the simulated runs
// bit-identical.

#include "src/hprof/lock_site.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/hmetrics/json.h"
#include "src/hsim/locks/stress.h"

namespace {

using hprof::Handoff;
using hprof::LockSiteStats;
using hprof::SiteTable;

TEST(LockSiteStats, RecordsAcquisitionsAndHandoffMatrix) {
  LockSiteStats site("test/lock", /*procs_per_cluster=*/4);
  // First acquisition: no previous owner, so no handoff is counted.
  site.RecordAcquire(/*owner=*/0, /*wait=*/10, /*contended=*/false);
  site.RecordRelease(/*hold=*/100);
  // 0 -> 1: same cluster.  1 -> 1: same processor.  1 -> 5: cross cluster.
  site.RecordAcquire(1, 20, true);
  site.RecordRelease(200);
  site.RecordAcquire(1, 0, false);
  site.RecordRelease(50);
  site.RecordAcquire(5, 40, true);
  site.RecordRelease(150);

  EXPECT_EQ(site.acquisitions(), 4u);
  EXPECT_EQ(site.contended(), 2u);
  EXPECT_EQ(site.uncontended(), 2u);
  EXPECT_EQ(site.handoffs(Handoff::kSameProcessor), 1u);
  EXPECT_EQ(site.handoffs(Handoff::kSameCluster), 1u);
  EXPECT_EQ(site.handoffs(Handoff::kCrossCluster), 1u);
  EXPECT_EQ(site.total_wait_ticks(), 70u);
  EXPECT_EQ(site.wait().count(), 4u);
  EXPECT_EQ(site.hold().count(), 4u);
  EXPECT_EQ(site.hold().sum(), 500u);

  // Per-cluster shares: cluster 0 saw owners 0 and 1 (3 acquisitions,
  // 30 ticks of wait), cluster 1 saw owner 5 (1 acquisition, 40 ticks).
  const auto& by_cluster = site.by_cluster();
  ASSERT_EQ(by_cluster.size(), 2u);
  EXPECT_EQ(by_cluster.at(0).acquisitions, 3u);
  EXPECT_EQ(by_cluster.at(0).wait_ticks, 30u);
  EXPECT_EQ(by_cluster.at(1).acquisitions, 1u);
  EXPECT_EQ(by_cluster.at(1).wait_ticks, 40u);
}

TEST(LockSiteStats, QueueDepthTracksMaximumConcurrentWaiters) {
  LockSiteStats site("test/queue");
  EXPECT_EQ(site.max_queue_depth(), 0u);
  site.EnterQueue();
  site.EnterQueue();
  site.EnterQueue();
  site.LeaveQueue();
  site.EnterQueue();  // depth back to 3; max stays 3
  EXPECT_EQ(site.max_queue_depth(), 3u);
  site.LeaveQueue();
  site.LeaveQueue();
  site.LeaveQueue();
  EXPECT_EQ(site.max_queue_depth(), 3u);
}

TEST(SiteTable, ExportsLockProfSchema) {
  SiteTable table(/*ticks_per_us=*/16.0);
  LockSiteStats& a = table.AddSite("kernel/shared", 4);
  a.RecordAcquire(0, 32, false);
  a.RecordRelease(64);
  a.RecordAcquire(5, 160, true);
  a.RecordRelease(32);
  table.AddSite("cluster0/local", 4);

  hmetrics::JsonValue doc;
  std::string error;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(table.ToJson(), &doc, &error)) << error;
  EXPECT_EQ(doc["schema"].string_value, "hurricane-lockprof/1");
  EXPECT_DOUBLE_EQ(doc["ticks_per_us"].number, 16.0);
  ASSERT_EQ(doc["sites"].array.size(), 2u);
  const hmetrics::JsonValue& site = doc["sites"].at(0);
  EXPECT_EQ(site["name"].string_value, "kernel/shared");
  EXPECT_EQ(site["acquisitions"].number, 2.0);
  EXPECT_EQ(site["contended"].number, 1.0);
  EXPECT_EQ(site["wait"]["sum"].number, 192.0);
  EXPECT_EQ(site["handoffs"]["cross_cluster"].number, 1.0);
  EXPECT_EQ(site["by_cluster"]["0"]["acquisitions"].number, 1.0);
  EXPECT_EQ(site["by_cluster"]["1"]["wait_sum"].number, 160.0);
  // The empty second site still exports a complete record.
  EXPECT_EQ(doc["sites"].at(1)["acquisitions"].number, 0.0);
}

// The paper's claim the profiler must reproduce: a machine-wide shared lock
// dominates by total wait time and its ownership migrates across clusters,
// while per-station locks stay cluster-local.
TEST(ProfiledContention, SharedLockDominatesWithCrossClusterHandoffs) {
  hsim::ProfiledContentionParams params;
  params.duration = hsim::UsToTicks(2000);
  SiteTable sites(16.0);
  const hsim::ProfiledContentionResult result =
      hsim::RunProfiledContention(params, &sites);

  EXPECT_GT(result.shared_acquisitions, 0u);
  EXPECT_GT(result.local_acquisitions, 0u);
  ASSERT_EQ(sites.size(), 5u);  // kernel/shared + one per station

  const LockSiteStats& shared = sites.site(0);
  EXPECT_EQ(shared.name(), "kernel/shared");
  EXPECT_EQ(shared.acquisitions(), result.shared_acquisitions);
  // All 16 processors fight for it: contention, deep queues, and remote
  // handoffs must all be visible.
  EXPECT_GT(shared.contended(), 0u);
  EXPECT_GT(shared.max_queue_depth(), 1u);
  EXPECT_GT(shared.handoffs(Handoff::kCrossCluster), 0u);
  EXPECT_EQ(shared.by_cluster().size(), 4u);

  // The shared lock out-waits every station lock, and the station locks
  // never hand off across clusters (only their own station touches them).
  std::uint64_t local_acqs = 0;
  for (std::size_t i = 1; i < sites.size(); ++i) {
    const LockSiteStats& local = sites.site(i);
    EXPECT_LT(local.total_wait_ticks(), shared.total_wait_ticks()) << local.name();
    EXPECT_EQ(local.handoffs(Handoff::kCrossCluster), 0u) << local.name();
    EXPECT_EQ(local.by_cluster().size(), 1u) << local.name();
    local_acqs += local.acquisitions();
  }
  EXPECT_EQ(local_acqs, result.local_acquisitions);
}

// Zero-cost-when-null, and observation does not perturb: the same scenario
// with and without sites attached produces identical simulated results.
TEST(ProfiledContention, ProfilingDoesNotPerturbTheSimulation) {
  hsim::ProfiledContentionParams params;
  params.duration = hsim::UsToTicks(1000);
  SiteTable sites(16.0);
  const hsim::ProfiledContentionResult profiled =
      hsim::RunProfiledContention(params, &sites);
  const hsim::ProfiledContentionResult bare =
      hsim::RunProfiledContention(params, nullptr);
  EXPECT_EQ(profiled.shared_acquisitions, bare.shared_acquisitions);
  EXPECT_EQ(profiled.local_acquisitions, bare.local_acquisitions);
}

TEST(LockStress, SiteHookDoesNotPerturbStressResults) {
  hsim::LockStressParams params;
  params.kind = hsim::LockKind::kMcsH2;
  params.processors = 8;
  params.hold = hsim::UsToTicks(2);
  params.warmup = hsim::UsToTicks(100);
  params.duration = hsim::UsToTicks(1000);
  const hsim::LockStressResult bare = hsim::RunLockStress(params);

  LockSiteStats site("stress/mcs-h2", 4);
  params.site = &site;
  const hsim::LockStressResult profiled = hsim::RunLockStress(params);

  EXPECT_EQ(profiled.acquisitions, bare.acquisitions);
  EXPECT_EQ(profiled.window_ops, bare.window_ops);
  EXPECT_EQ(profiled.spin_retries, bare.spin_retries);
  EXPECT_EQ(profiled.mcs_repairs, bare.mcs_repairs);
  EXPECT_EQ(profiled.acquire_latency.sum(), bare.acquire_latency.sum());
  EXPECT_EQ(profiled.acquire_latency.max(), bare.acquire_latency.max());
  // And the site actually observed the run.
  EXPECT_EQ(site.acquisitions(), profiled.acquisitions);
  EXPECT_GT(site.contended(), 0u);
}

}  // namespace
