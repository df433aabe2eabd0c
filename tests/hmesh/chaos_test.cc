// The ISSUE 10 chaos campaign as a unit test: kill one machine at steady
// state, recover it mid-load, and audit the acceptance gates --
//
//   1. exact-once: every acked client write was applied at exactly one
//      version mesh-wide (the apply ledger has one entry per acked op);
//   2. zero lost ops: every policy holder of every key actually stores it
//      (possession is asserted, not used to gate the audit -- a replica that
//      silently lost data must fail here, not drop out), and the highest
//      acked version of every key is what the owner and every holder store;
//   3. bounded unavailability: failover commits within the detection budget
//      (suspect_after escalating timeouts) and the recovered machine is
//      re-synced within the configured re-sync window;
//   4. bit-identical replay: running the whole campaign twice at the same
//      seed produces the same digest.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/hmesh/client.h"
#include "src/hmesh/mesh.h"

namespace hmesh {
namespace {

using hsim::Tick;
using hsim::UsToTicks;

constexpr std::uint32_t kMachines = 4;
constexpr std::uint32_t kVictim = 3;
constexpr Tick kKillAt = UsToTicks(2'000);
constexpr Tick kRecoverAt = UsToTicks(6'000);
// Detection: suspect_after=4 escalating timeouts from the first post-kill
// call (120+240+480+960 us plus jitter and send overheads), plus up to one
// inter-arrival gap before anything calls the dead machine.
constexpr Tick kDetectBudget = UsToTicks(3'000);
// Re-sync: two cursor-batched pull rounds over three peers.
constexpr Tick kSyncBudget = UsToTicks(10'000);

template <typename Pred>
bool DriveUntil(hsim::Engine& eng, Tick deadline, Pred pred) {
  while (!pred() && eng.now() < deadline) {
    if (eng.RunUntil(eng.now() + UsToTicks(50))) {
      break;
    }
  }
  return pred();
}

struct ChaosResult {
  bool all_done = false;
  bool quiesced = false;
  std::uint64_t digest = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t failovers = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t put_dedups = 0;
  Mesh::Timeline timeline;
  std::vector<AckedWrite> acked;
  // Copied store of every machine for the zero-lost audit.
  std::vector<std::map<std::uint64_t, Mesh::Entry>> stores;
  std::map<std::uint64_t, std::vector<std::uint64_t>> ledger;
  std::vector<std::uint32_t> owners;  // final ring owner per key
  std::vector<std::vector<std::uint32_t>> holders;  // final policy holders per key
  std::vector<std::vector<bool>> holds;  // [m][key] HoldsLocally at the end
};

ChaosResult RunChaosCampaign() {
  hsim::Engine eng;
  MeshConfig mc;
  mc.machines = kMachines;
  Mesh mesh(&eng, mc);

  // A lightly lossy transport underneath the whole campaign, so the kill and
  // the recovery both happen while retransmit/dedup paths are active.
  hsim::FaultConfig faults;
  faults.drop_request = 0.01;
  faults.drop_reply = 0.01;
  faults.dup_request = 0.005;
  faults.seed = 1234;
  mesh.set_fault_plan(faults);
  mesh.Start();

  // Clients on the survivors only (a killed machine's clients die with it;
  // their fate is not what this campaign measures).
  ClientConfig cc;
  cc.workload.num_clusters = mc.machines;
  cc.workload.keys_per_cluster = mc.keys_per_machine;
  cc.workload.read_fraction = 0.8;  // write-rich: exercises failover puts
  cc.workload.seed = 77;
  cc.ops = 900;
  cc.rate_per_s = 80'000;  // ~11 ms of offered load, spanning kill + recovery
  std::vector<ClientStats> stats(kMachines - 1);
  for (std::uint32_t m = 0; m < kMachines - 1; ++m) {
    eng.Spawn(RunClient(&mesh, m, cc, &stats[m]));
  }

  eng.Spawn(mesh.KillAt(kKillAt, kVictim));
  eng.Spawn(mesh.RecoverAt(kRecoverAt, kVictim));

  ChaosResult r;
  r.all_done = DriveUntil(eng, UsToTicks(2'000'000), [&] {
    return std::all_of(stats.begin(), stats.end(),
                       [](const ClientStats& s) { return s.done; }) &&
           mesh.timeline(kVictim).synced_at != 0;
  });
  r.quiesced = DriveUntil(eng, UsToTicks(2'100'000), [&] { return mesh.Quiescent(); });

  for (std::uint32_t m = 0; m < kMachines - 1; ++m) {
    r.issued += stats[m].issued;
    r.completed += stats[m].completed;
    r.failed += stats[m].failed;
    r.acked.insert(r.acked.end(), stats[m].acked_writes.begin(),
                   stats[m].acked_writes.end());
  }
  r.failovers = mesh.failovers();
  r.resyncs = mesh.resyncs();
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    r.put_dedups += mesh.node_counters(m).put_dedups;
  }
  r.timeline = mesh.timeline(kVictim);
  r.digest = mesh.Digest();
  r.ledger.insert(mesh.op_versions().begin(), mesh.op_versions().end());
  r.stores.resize(kMachines);
  r.holds.assign(kMachines, std::vector<bool>(mc.keys(), false));
  r.owners.resize(mc.keys());
  r.holders.resize(mc.keys());
  for (std::uint64_t key = 0; key < mc.keys(); ++key) {
    r.owners[key] = mesh.ring().OwnerOf(key);
    r.holders[key] = mesh.HoldersOf(key);
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      const Mesh::Entry* e = mesh.Lookup(m, key);
      if (e != nullptr) {
        r.stores[m][key] = *e;
      }
      r.holds[m][key] = mesh.HoldsLocally(m, key);
    }
  }
  mesh.Shutdown();
  eng.RunUntilIdle();
  return r;
}

TEST(MeshChaosTest, KillRecoverCycleMeetsAllGates) {
  const ChaosResult r = RunChaosCampaign();
  ASSERT_TRUE(r.all_done) << "campaign did not drain: completed " << r.completed << "/"
                          << r.issued << ", synced_at=" << r.timeline.synced_at;
  ASSERT_TRUE(r.quiesced);

  // Every op issued by a surviving client completed; none were abandoned.
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.resyncs, 1u);

  // Gate 1: exact-once.  One ledger entry per acked write, at the acked
  // version.
  for (const AckedWrite& w : r.acked) {
    ASSERT_EQ(r.ledger.count(w.op_id), 1u) << "acked op " << w.op_id << " never applied";
    const auto& versions = r.ledger.at(w.op_id);
    ASSERT_EQ(versions.size(), 1u)
        << "op " << w.op_id << " applied at " << versions.size() << " distinct versions";
    EXPECT_EQ(versions[0], w.version);
  }

  // Gate 2: zero lost ops.  First, possession: at the end of the campaign
  // every machine is up and the victim has completed resync, so *every*
  // policy holder of *every* key -- written or only seeded -- must actually
  // store it.  This is asserted outright rather than used to gate the value
  // audit: HoldsLocally is false precisely when the store entry is missing,
  // so a replica that silently lost data would otherwise be excluded from
  // the very check meant to catch the loss.
  for (std::uint64_t key = 0; key < r.owners.size(); ++key) {
    for (std::uint32_t m : r.holders[key]) {
      EXPECT_TRUE(r.holds[m][key]) << "holder " << m << " does not serve key " << key;
      EXPECT_EQ(r.stores[m].count(key), 1u) << "holder " << m << " lost key " << key;
    }
  }
  // Then values: for every written key, its highest acked write is what the
  // final owner stores, and every policy holder agrees.
  std::map<std::uint64_t, AckedWrite> newest;
  for (const AckedWrite& w : r.acked) {
    auto [it, inserted] = newest.emplace(w.key, w);
    if (!inserted && w.version > it->second.version) {
      it->second = w;
    }
  }
  EXPECT_GT(newest.size(), 10u);  // the campaign actually wrote broadly
  for (const auto& [key, w] : newest) {
    const std::uint32_t owner = r.owners[key];
    const auto it = r.stores[owner].find(key);
    ASSERT_NE(it, r.stores[owner].end()) << "owner " << owner << " lost key " << key;
    EXPECT_EQ(it->second.version, w.version) << key;
    EXPECT_EQ(it->second.value, w.value) << key;
    for (std::uint32_t m : r.holders[key]) {
      if (m == owner) {
        continue;
      }
      const auto rit = r.stores[m].find(key);
      ASSERT_NE(rit, r.stores[m].end()) << "holder " << m << " lost key " << key;
      EXPECT_EQ(rit->second.version, w.version) << "stale replica on " << m << " key " << key;
      EXPECT_EQ(rit->second.value, w.value) << key;
    }
  }

  // Gate 3: bounded unavailability.  Failover commits within the detection
  // budget; the rejoined machine is fully re-synced within the sync budget.
  ASSERT_EQ(r.timeline.killed_at, kKillAt);
  ASSERT_GT(r.timeline.failover_at, r.timeline.killed_at);
  EXPECT_LE(r.timeline.failover_at - r.timeline.killed_at, kDetectBudget);
  ASSERT_GE(r.timeline.recover_at, kRecoverAt);
  ASSERT_GT(r.timeline.synced_at, r.timeline.recover_at);
  EXPECT_LE(r.timeline.synced_at - r.timeline.recover_at, kSyncBudget);
}

TEST(MeshChaosTest, CampaignReplaysBitIdentically) {
  const ChaosResult a = RunChaosCampaign();
  const ChaosResult b = RunChaosCampaign();
  ASSERT_TRUE(a.all_done);
  ASSERT_TRUE(b.all_done);
  // Gate 4: same seeds, same kill/recover schedule -> the same mesh, bit for
  // bit: digest folds stores, counters, traffic, ring, and the ledger.
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timeline.failover_at, b.timeline.failover_at);
  EXPECT_EQ(a.timeline.synced_at, b.timeline.synced_at);
  EXPECT_EQ(a.put_dedups, b.put_dedups);
}

}  // namespace
}  // namespace hmesh
