// Exact (enqueue-time) cluster attribution for hierarchical locks.
//
// The id-division convention (owner / procs_per_cluster) is right for flat
// locks whose owner ids are dense processor ids, but a hierarchical lock
// knows each waiter's real cluster from its own queue nodes — and the two
// can disagree (native thread ids, kernel worker ids, migrated processes).
// The explicit-cluster RecordAcquire overload and EnterQueue(cluster) let
// the lock report what it knows; these tests pin that the explicit cluster
// wins over the derived one, and a golden file pins the lockprof export
// schema carrying the attribution (per-cluster "enqueues" included).

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "src/hprof/lock_site.h"

namespace {

using hprof::Handoff;
using hprof::LockSiteStats;
using hprof::SiteTable;

// The canned session: one hierarchical lock whose owner ids would classify
// wrongly under id-division (owner 5 lives in cluster 0, not id-cluster 1).
void FillCannedTable(SiteTable* table) {
  LockSiteStats& site = table->AddSite("svc/hierarchical", /*procs_per_cluster=*/4);

  // Owner 0, cluster 0: first grant, no handoff.
  site.EnterQueue(0);
  site.RecordAcquire(/*owner=*/0, /*wait=*/160, /*contended=*/true, /*cluster=*/0);
  site.LeaveQueue();
  site.RecordRelease(/*hold=*/32);

  // Owner 5 is in cluster 0 as the lock knows it (id-division would say
  // cluster 1): the 0 -> 5 handoff must count as same-cluster.
  site.EnterQueue(0);
  site.RecordAcquire(5, 320, true, 0);
  site.LeaveQueue();
  site.RecordRelease(64);

  // Owner 12, cluster 3: cross-cluster, uncontended (no enqueue).
  site.RecordAcquire(12, 0, false, 3);
  site.RecordRelease(16);

  // Owner 12 re-acquires: same-processor whatever the clusters say.
  site.EnterQueue(3);
  site.RecordAcquire(12, 80, true, 3);
  site.LeaveQueue();
  site.RecordRelease(16);

  // The hybrid table's reserve-word path: waiters spin *outside* the coarse
  // lock and report their cluster at enqueue time.  (The pre-fix code used
  // the cluster-less EnterQueue() here, so the offered per-cluster mix below
  // -- who waited, not just who won -- was silently dropped.)  Two waiters
  // from different clusters overlap in the queue before either is granted.
  LockSiteStats& reserve = table->AddSite("svc/table.reserve", /*procs_per_cluster=*/4);
  reserve.RecordAcquire(/*owner=*/1, /*wait=*/0, /*contended=*/false, /*cluster=*/0);
  reserve.EnterQueue(1);  // owner 4, cluster 1, starts waiting
  reserve.EnterQueue(2);  // owner 9, cluster 2, waits alongside (depth 2)
  reserve.RecordRelease(/*hold=*/480);  // owner 1 clears the reserve word
  reserve.RecordAcquire(4, 520, true, 1);
  reserve.LeaveQueue();
  reserve.RecordRelease(96);
  reserve.RecordAcquire(9, 1040, true, 2);
  reserve.LeaveQueue();
  reserve.RecordRelease(64);
}

TEST(ClusterAttribution, ExplicitClusterOverridesIdDivision) {
  SiteTable table(/*ticks_per_us=*/16.0);
  FillCannedTable(&table);
  const LockSiteStats& site = table.site(0);

  EXPECT_EQ(site.acquisitions(), 4u);
  EXPECT_EQ(site.contended(), 3u);
  // 0 -> 5 is same-cluster by the lock's attribution, though id division
  // by 4 would put the two owners in different clusters.
  EXPECT_EQ(site.handoffs(Handoff::kSameCluster), 1u);
  EXPECT_EQ(site.handoffs(Handoff::kCrossCluster), 1u);  // 5 -> 12
  EXPECT_EQ(site.handoffs(Handoff::kSameProcessor), 1u); // 12 -> 12

  // Enqueue-time capture: cluster 0 waited twice, cluster 3 once; the
  // uncontended grant never entered the queue.
  ASSERT_EQ(site.by_cluster().size(), 2u);
  EXPECT_EQ(site.by_cluster().at(0).acquisitions, 2u);
  EXPECT_EQ(site.by_cluster().at(0).enqueues, 2u);
  EXPECT_EQ(site.by_cluster().at(3).acquisitions, 2u);
  EXPECT_EQ(site.by_cluster().at(3).enqueues, 1u);
}

// The reserve-path site: enqueue-time capture keeps the offered mix (one
// waiter per cluster 1 and 2) even though the winners' clusters would have
// been recorded anyway -- by_cluster() now distinguishes "waited there" from
// "won there", and overlapping waiters reach queue depth 2.
TEST(ClusterAttribution, ReservePathCapturesOfferedMixAtEnqueue) {
  SiteTable table(/*ticks_per_us=*/16.0);
  FillCannedTable(&table);
  const LockSiteStats& reserve = table.site(1);

  EXPECT_EQ(reserve.acquisitions(), 3u);
  EXPECT_EQ(reserve.contended(), 2u);
  EXPECT_EQ(reserve.max_queue_depth(), 2u);
  ASSERT_EQ(reserve.by_cluster().size(), 3u);
  EXPECT_EQ(reserve.by_cluster().at(0).enqueues, 0u);  // uncontended winner
  EXPECT_EQ(reserve.by_cluster().at(0).acquisitions, 1u);
  EXPECT_EQ(reserve.by_cluster().at(1).enqueues, 1u);
  EXPECT_EQ(reserve.by_cluster().at(2).enqueues, 1u);
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "cannot open " << path;
  if (f == nullptr) {
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

// The golden file pins the hurricane-lockprof/1 export for the canned
// session, including the per-cluster "enqueues" field.  Regenerate (after
// inspecting the diff!) by setting HPROF_WRITE_GOLDEN=1 in the environment
// and re-running this test.
TEST(ClusterAttribution, LockProfExportMatchesGolden) {
  SiteTable table(/*ticks_per_us=*/16.0);
  FillCannedTable(&table);
  const std::string json = table.ToJson() + "\n";
  const std::string path =
      std::string(HPROF_TESTDATA_DIR) + "/cluster_attrib_lockprof.json";
  if (std::getenv("HPROF_WRITE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  EXPECT_EQ(json, ReadFileOrDie(path));
}

}  // namespace
