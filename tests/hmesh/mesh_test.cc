// hmesh core behaviour: routing + replication placement, local vs forwarded
// reads, broadcast-update write replication, exact-once under a lossy
// transport, whole-run determinism, and the partitioned-machine no-eviction
// guarantee (ISSUE 10 satellite 1 tied into the tentpole).

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

// Drives the engine in slices until pred() holds or `deadline` passes.
template <typename Pred>
bool DriveUntil(hsim::Engine& eng, Tick deadline, Pred pred) {
  while (!pred() && eng.now() < deadline) {
    if (eng.RunUntil(eng.now() + UsToTicks(50))) {
      break;  // queue drained; nothing will ever change pred again
    }
  }
  return pred();
}

hsim::Task<void> OneRead(Mesh* mesh, std::uint32_t m, std::uint64_t key,
                         std::uint64_t* value, bool* local, MeshStatus* status) {
  hsim::Processor& p = mesh->machine(m).processor(1);
  *status = co_await mesh->ClientRead(p, m, key, value, local, nullptr);
}

hsim::Task<void> OneWrite(Mesh* mesh, std::uint32_t m, std::uint64_t key,
                          std::uint64_t value, std::uint64_t op_id, std::uint64_t* version,
                          MeshStatus* status) {
  hsim::Processor& p = mesh->machine(m).processor(1);
  *status = co_await mesh->ClientWrite(p, m, key, value, op_id, version, nullptr);
}

MeshConfig SmallMesh(std::uint32_t machines = 4) {
  MeshConfig config;
  config.machines = machines;
  return config;
}

TEST(MeshTest, ReplicationPlacement) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());

  // Hot keys (rank < hot_ranks, i.e. key / machines < 16) are replicated on
  // every member; cold keys on `replicas` distinct machines, owner first.
  const std::uint64_t hot = 5;
  const std::uint64_t cold = 16 * 4 + 3;  // rank 16: first cold rank
  EXPECT_EQ(mesh.HoldersOf(hot).size(), 4u);
  const auto cold_holders = mesh.HoldersOf(cold);
  ASSERT_EQ(cold_holders.size(), 2u);
  EXPECT_EQ(cold_holders[0], mesh.ring().OwnerOf(cold));
  EXPECT_NE(cold_holders[0], cold_holders[1]);
}

TEST(MeshTest, LocalAndForwardedReads) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());
  mesh.Start();

  // Hot key: every machine serves it from its own replica.
  const std::uint64_t hot = 7;
  for (std::uint32_t m = 0; m < 4; ++m) {
    std::uint64_t value = 0;
    bool local = false;
    MeshStatus status = MeshStatus::kPending;
    eng.Spawn(OneRead(&mesh, m, hot, &value, &local, &status));
    ASSERT_TRUE(DriveUntil(eng, UsToTicks(10'000),
                           [&] { return status != MeshStatus::kPending; }));
    EXPECT_EQ(status, MeshStatus::kOk);
    EXPECT_TRUE(local) << m;
    EXPECT_EQ(value, hot * 7 + 1);  // preload value
    EXPECT_EQ(mesh.node_counters(m).local_reads, 1u);
  }

  // Cold key read from a non-holder forwards to the owner over the wire.
  const std::uint64_t cold = 20 * 4 + 1;
  const auto holders = mesh.HoldersOf(cold);
  std::uint32_t outsider = 0;
  while (std::find(holders.begin(), holders.end(), outsider) != holders.end()) {
    ++outsider;
  }
  std::uint64_t value = 0;
  bool local = true;
  MeshStatus status = MeshStatus::kPending;
  eng.Spawn(OneRead(&mesh, outsider, cold, &value, &local, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(10'000), [&] { return status != MeshStatus::kPending; }));
  EXPECT_EQ(status, MeshStatus::kOk);
  EXPECT_FALSE(local);
  EXPECT_EQ(value, cold * 7 + 1);
  EXPECT_EQ(mesh.node_counters(outsider).forwarded_reads, 1u);
  EXPECT_EQ(mesh.node_counters(holders[0]).gets_served, 1u);
  EXPECT_GE(mesh.traffic(outsider, holders[0]), 1u);

  mesh.Shutdown();
  eng.RunUntilIdle();
}

TEST(MeshTest, WriteReplicatesToEveryHolder) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());
  mesh.Start();

  // A hot-key write from a non-owner machine must reach all four replicas.
  const std::uint64_t hot = 3;
  const std::uint32_t owner = mesh.ring().OwnerOf(hot);
  const std::uint32_t writer = (owner + 1) % 4;
  const std::uint64_t op_id = ClientOpId(writer, 0);
  std::uint64_t version = 0;
  MeshStatus status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, hot, 777, op_id, &version, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  EXPECT_EQ(version, 2u);  // preload was version 1

  ASSERT_TRUE(DriveUntil(eng, UsToTicks(50'000), [&] { return mesh.Quiescent(); }));
  for (std::uint32_t m = 0; m < 4; ++m) {
    const Mesh::Entry* e = mesh.Lookup(m, hot);
    ASSERT_NE(e, nullptr) << m;
    EXPECT_EQ(e->value, 777u) << m;
    EXPECT_EQ(e->version, 2u) << m;
    EXPECT_EQ(e->writer_op, op_id) << m;
  }
  // Exactly one ledger entry: the op was applied at exactly one version.
  ASSERT_EQ(mesh.op_versions().count(op_id), 1u);
  EXPECT_EQ(mesh.op_versions().at(op_id).size(), 1u);

  // Cold-key write: only its two policy holders carry the data.
  const std::uint64_t cold = 25 * 4 + 2;
  const auto holders = mesh.HoldersOf(cold);
  const std::uint64_t op2 = ClientOpId(writer, 1);
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, cold, 888, op2, &version, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(50'000), [&] { return mesh.Quiescent(); }));
  for (std::uint32_t m = 0; m < 4; ++m) {
    const bool is_holder = std::find(holders.begin(), holders.end(), m) != holders.end();
    const Mesh::Entry* e = mesh.Lookup(m, cold);
    if (is_holder) {
      ASSERT_NE(e, nullptr) << m;
      EXPECT_EQ(e->value, 888u) << m;
    } else {
      EXPECT_TRUE(e == nullptr || e->value != 888u) << m;
    }
  }

  mesh.Shutdown();
  eng.RunUntilIdle();
}

TEST(MeshTest, RetriedPutSurvivesInterveningWriteToSameKey) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());
  mesh.Start();

  const std::uint64_t key = 3;  // hot: replicated on every machine
  const std::uint32_t writer = (mesh.ring().OwnerOf(key) + 1) % 4;
  const std::uint64_t op_a = ClientOpId(writer, 0);
  const std::uint64_t op_b = ClientOpId(writer, 1);

  std::uint64_t version_a = 0;
  std::uint64_t version_b = 0;
  std::uint64_t version_retry = 0;
  MeshStatus status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 111, op_a, &version_a, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 222, op_b, &version_b, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  ASSERT_GT(version_b, version_a);

  // A retry of op A whose ack was lost, arriving only after op B overwrote
  // the key.  The per-key writer slot now names op B, so only the per-node
  // applied-op table can recognise the retry: it must be answered from the
  // record at its original version, never re-executed at a fresh one.
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 111, op_a, &version_retry, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  EXPECT_EQ(version_retry, version_a);
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(50'000), [&] { return mesh.Quiescent(); }));

  // Exactly one application of each op, and the intervening write is still
  // the newest data everywhere.
  ASSERT_EQ(mesh.op_versions().count(op_a), 1u);
  EXPECT_EQ(mesh.op_versions().at(op_a), std::vector<std::uint64_t>{version_a});
  ASSERT_EQ(mesh.op_versions().count(op_b), 1u);
  EXPECT_EQ(mesh.op_versions().at(op_b), std::vector<std::uint64_t>{version_b});
  std::uint64_t dedups = 0;
  for (std::uint32_t m = 0; m < 4; ++m) {
    dedups += mesh.node_counters(m).put_dedups;
    const Mesh::Entry* e = mesh.Lookup(m, key);
    ASSERT_NE(e, nullptr) << m;
    EXPECT_EQ(e->value, 222u) << m;
    EXPECT_EQ(e->version, version_b) << m;
  }
  EXPECT_EQ(dedups, 1u);

  mesh.Shutdown();
  eng.RunUntilIdle();
}

TEST(MeshTest, RecoverRestoresEveryHeldKeyIncludingKeyZero) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh();
  Mesh mesh(&eng, mc);
  mesh.Start();

  // Crash and promptly recover a holder of key 0 with no load: nobody
  // suspects it, so the ring never changes and the victim must rebuild its
  // entire held set -- key 0 included -- purely from the sync pulls.
  const std::uint32_t victim = mesh.ring().OwnerOf(0);
  eng.Spawn(mesh.KillAt(UsToTicks(100), victim));
  eng.Spawn(mesh.RecoverAt(UsToTicks(200), victim));
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(200'000),
                         [&] { return mesh.timeline(victim).synced_at != 0; }));

  for (std::uint64_t key = 0; key < mc.keys(); ++key) {
    const auto holders = mesh.HoldersOf(key);
    if (std::find(holders.begin(), holders.end(), victim) == holders.end()) {
      continue;
    }
    const Mesh::Entry* e = mesh.Lookup(victim, key);
    ASSERT_NE(e, nullptr) << "resync never restored key " << key;
    EXPECT_EQ(e->value, key * 7 + 1) << key;  // preload value
    EXPECT_EQ(e->version, 1u) << key;
  }

  mesh.Shutdown();
  eng.RunUntilIdle();
}

TEST(MeshTest, RetryAfterRecoveryDedupsFromSyncedOps) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());
  mesh.Start();

  const std::uint64_t key = 2;  // hot: every machine is a holder
  const std::uint32_t victim = mesh.ring().OwnerOf(key);
  const std::uint32_t writer = (victim + 1) % 4;
  const std::uint64_t op_a = ClientOpId(writer, 0);
  const std::uint64_t op_b = ClientOpId(writer, 1);

  std::uint64_t version_a = 0;
  std::uint64_t version_b = 0;
  MeshStatus status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 111, op_a, &version_a, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 222, op_b, &version_b, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(50'000), [&] { return mesh.Quiescent(); }));

  // Crash the owner (its dedup table dies with it) and recover it.  The ops
  // sync must rebuild the record for op A from the surviving replicas even
  // though every store's per-key writer slot now names op B.
  const hsim::Tick now = eng.now();
  eng.Spawn(mesh.KillAt(now + UsToTicks(100), victim));
  eng.Spawn(mesh.RecoverAt(now + UsToTicks(200), victim));
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(400'000),
                         [&] { return mesh.timeline(victim).synced_at != 0; }));

  // A late retry of op A routed to the rejoined owner must dedup, not
  // re-execute.
  std::uint64_t version_retry = 0;
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 111, op_a, &version_retry, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(450'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  EXPECT_EQ(version_retry, version_a);
  ASSERT_EQ(mesh.op_versions().count(op_a), 1u);
  EXPECT_EQ(mesh.op_versions().at(op_a), std::vector<std::uint64_t>{version_a});
  EXPECT_EQ(mesh.node_counters(victim).put_dedups, 1u);
  EXPECT_GT(mesh.node_counters(victim).sync_ops_in, 0u);

  mesh.Shutdown();
  eng.RunUntilIdle();
}

void ExpectHolderCacheMatchesRing(const Mesh& mesh, const char* when) {
  for (std::uint64_t key = 0; key < mesh.config().keys(); ++key) {
    const auto cached = mesh.CachedHoldersOf(key);
    EXPECT_EQ(std::vector<std::uint32_t>(cached.begin(), cached.end()), mesh.HoldersOf(key))
        << when << ", key " << key;
  }
}

TEST(MeshTest, HolderCacheFollowsEveryRingChange) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh();
  Mesh mesh(&eng, mc);
  mesh.Start();
  ExpectHolderCacheMatchesRing(mesh, "at construction");

  // Failover: the victim leaves the ring, and every key it held moves.
  const std::uint32_t victim = 2;
  mesh.Kill(victim);
  mesh.Suspect(victim);
  ASSERT_FALSE(mesh.ring().Contains(victim));
  EXPECT_EQ(mesh.epoch(), 1u);
  ExpectHolderCacheMatchesRing(mesh, "after failover");
  for (std::uint64_t key = 0; key < mc.keys(); ++key) {
    const auto cached = mesh.CachedHoldersOf(key);
    EXPECT_EQ(std::find(cached.begin(), cached.end(), victim), cached.end()) << key;
  }

  // Recovery: the rejoin is the second ring change.
  mesh.Recover(victim);
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(200'000),
                         [&] { return mesh.timeline(victim).synced_at != 0; }));
  ASSERT_TRUE(mesh.ring().Contains(victim));
  EXPECT_EQ(mesh.epoch(), 2u);
  ExpectHolderCacheMatchesRing(mesh, "after rejoin");

  mesh.Shutdown();
  eng.RunUntilIdle();
}

// Every record of machine m's dedup table, by op id.
std::map<std::uint64_t, AppliedOps::Record> DedupTable(const Mesh& mesh, std::uint32_t m) {
  std::map<std::uint64_t, AppliedOps::Record> out;
  mesh.applied_ops(m).ForEach([&](const AppliedOps::Record& r) { out.emplace(r.op_id, r); });
  return out;
}

TEST(MeshTest, MultiBatchResyncRestoresStoreAndDedupTable) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh();
  mc.sync_batch = 4;  // every pull of the store and of the table takes batches
  Mesh mesh(&eng, mc);
  mesh.Start();

  // Writes to two hot keys the victim owns: every machine holds them, so
  // every live machine ends with the same store and dedup table.  Each key
  // is written many times, so the store pull restores only the last writer
  // of each and the table pull must bring every other record.
  const std::uint32_t victim = mesh.ring().OwnerOf(0);
  const std::uint32_t writer = (victim + 1) % 4;
  const std::uint32_t live = (victim + 2) % 4;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 0; key < mc.hot_ranks * mc.machines && keys.size() < 2; ++key) {
    if (mesh.ring().OwnerOf(key) == victim) {
      keys.push_back(key);
    }
  }
  ASSERT_EQ(keys.size(), 2u);
  // Op ids out of order, so a table that is not served in op-id order
  // skips records at the batch cursor.
  constexpr std::uint64_t kOps = 3 * 4 + 2;  // more than three batches
  std::vector<std::uint64_t> versions(kOps);
  for (std::uint64_t n = 0; n < kOps; ++n) {
    const std::uint64_t i = n * 5 % kOps;
    MeshStatus status = MeshStatus::kPending;
    eng.Spawn(OneWrite(&mesh, writer, keys[i % keys.size()], 1000 + i, ClientOpId(writer, i),
                       &versions[i], &status));
    ASSERT_TRUE(DriveUntil(eng, eng.now() + UsToTicks(50'000),
                           [&] { return status != MeshStatus::kPending; }));
    ASSERT_EQ(status, MeshStatus::kOk);
  }
  ASSERT_TRUE(DriveUntil(eng, eng.now() + UsToTicks(50'000), [&] { return mesh.Quiescent(); }));
  ASSERT_EQ(mesh.applied_ops(live).size(), kOps);

  // Crash and recover the owner without a failover: the ring never changes,
  // so the victim owns the same keys again once it has resynced.
  const hsim::Tick now = eng.now();
  eng.Spawn(mesh.KillAt(now + UsToTicks(100), victim));
  eng.Spawn(mesh.RecoverAt(now + UsToTicks(200), victim));
  ASSERT_TRUE(DriveUntil(eng, now + UsToTicks(400'000),
                         [&] { return mesh.timeline(victim).synced_at != 0; }));
  ASSERT_TRUE(DriveUntil(eng, eng.now() + UsToTicks(50'000), [&] { return mesh.Quiescent(); }));

  EXPECT_EQ(DedupTable(mesh, victim), DedupTable(mesh, live));
  for (std::uint64_t key = 0; key < mc.hot_ranks * mc.machines; ++key) {
    const Mesh::Entry* mine = mesh.Lookup(victim, key);
    const Mesh::Entry* theirs = mesh.Lookup(live, key);
    ASSERT_NE(mine, nullptr) << key;
    ASSERT_NE(theirs, nullptr) << key;
    EXPECT_EQ(mine->value, theirs->value) << key;
    EXPECT_EQ(mine->version, theirs->version) << key;
    EXPECT_EQ(mine->writer_op, theirs->writer_op) << key;
  }

  // Late retries of the lowest and the highest op id, from the first and the
  // last batch of the table pull, dedup at the rejoined owner.
  for (const std::uint64_t i : {std::uint64_t{0}, kOps - 1}) {
    std::uint64_t version = 0;
    MeshStatus status = MeshStatus::kPending;
    eng.Spawn(OneWrite(&mesh, writer, keys[i % keys.size()], 1000 + i, ClientOpId(writer, i),
                       &version, &status));
    ASSERT_TRUE(DriveUntil(eng, eng.now() + UsToTicks(50'000),
                           [&] { return status != MeshStatus::kPending; }));
    ASSERT_EQ(status, MeshStatus::kOk);
    EXPECT_EQ(version, versions[i]) << i;
  }
  EXPECT_EQ(mesh.node_counters(victim).put_dedups, 2u);

  mesh.Shutdown();
  eng.RunUntilIdle();
}

TEST(MeshDeathTest, KeyOutsideTheKeyspaceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const MeshConfig mc = SmallMesh();
  EXPECT_DEATH(
      {
        hsim::Engine eng;
        Mesh mesh(&eng, mc);
        mesh.Start();
        mesh.Lookup(0, mc.keys());
      },
      "outside the keyspace");
  EXPECT_DEATH(
      {
        hsim::Engine eng;
        Mesh mesh(&eng, mc);
        mesh.Start();
        std::uint64_t version = 0;
        MeshStatus status = MeshStatus::kPending;
        eng.Spawn(OneWrite(&mesh, 0, mc.keys() + 5, 1, ClientOpId(0, 0), &version, &status));
        eng.RunUntilIdle();
      },
      "outside the keyspace");
}

// --- full-load scenarios ------------------------------------------------------

struct LoadResult {
  std::uint64_t digest = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t forwarded_reads = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t failovers = 0;
  std::uint64_t partitioned = 0;
  std::vector<AckedWrite> acked;
  bool all_done = false;
  Tick end = 0;              // engine tick once shut down and idle
  std::uint64_t events = 0;  // engine events processed by the whole run
};

// Audits the mesh after a drained run: every acked write applied at exactly
// one version (exact-once) and the highest acked version of every key present
// with the right value on the owner and every possession-holding replica
// (zero lost ops).
void AuditMesh(const Mesh& mesh, const std::vector<AckedWrite>& acked) {
  std::map<std::uint64_t, AckedWrite> newest;  // key -> highest acked version
  for (const AckedWrite& w : acked) {
    ASSERT_EQ(mesh.op_versions().count(w.op_id), 1u) << "op " << w.op_id << " never applied";
    const auto& versions = mesh.op_versions().at(w.op_id);
    ASSERT_EQ(versions.size(), 1u) << "op " << w.op_id << " applied at " << versions.size()
                                   << " distinct versions";
    EXPECT_EQ(versions[0], w.version) << w.op_id;
    auto [it, inserted] = newest.emplace(w.key, w);
    if (!inserted && w.version > it->second.version) {
      it->second = w;
    }
  }
  for (const auto& [key, w] : newest) {
    const std::uint32_t owner = mesh.ring().OwnerOf(key);
    const Mesh::Entry* e = mesh.Lookup(owner, key);
    ASSERT_NE(e, nullptr) << "owner of key " << key << " lost it";
    EXPECT_EQ(e->version, w.version) << key;
    EXPECT_EQ(e->value, w.value) << key;
    for (std::uint32_t m = 0; m < mesh.config().machines; ++m) {
      if (m != owner && mesh.HoldsLocally(m, key)) {
        const Mesh::Entry* r = mesh.Lookup(m, key);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->version, w.version) << "stale replica of key " << key << " on " << m;
        EXPECT_EQ(r->value, w.value) << key;
      }
    }
  }
}

// One complete load scenario: 4 machines, a client per machine, optional
// transport faults and an optional partition window on machine 1.
LoadResult RunLoadScenario(const hsim::FaultConfig* faults, bool partition_window,
                           bool audit = true) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh();
  Mesh mesh(&eng, mc);
  if (faults != nullptr) {
    mesh.set_fault_plan(*faults);
  }
  if (partition_window) {
    // Unplug machine 1 for 1.5 ms mid-run; it stays a ring member throughout.
    mesh.fault_plan()->PartitionNode(1, UsToTicks(1000), UsToTicks(2500));
  }
  mesh.Start();

  ClientConfig cc;
  cc.workload.num_clusters = mc.machines;
  cc.workload.keys_per_cluster = mc.keys_per_machine;
  cc.workload.read_fraction = 0.9;
  cc.workload.seed = 42;
  cc.ops = 200;
  cc.rate_per_s = 150'000;
  std::vector<ClientStats> stats(mc.machines);
  for (std::uint32_t m = 0; m < mc.machines; ++m) {
    eng.Spawn(RunClient(&mesh, m, cc, &stats[m]));
  }

  LoadResult r;
  r.all_done = DriveUntil(eng, UsToTicks(1'000'000), [&] {
    return std::all_of(stats.begin(), stats.end(),
                       [](const ClientStats& s) { return s.done; });
  });
  DriveUntil(eng, UsToTicks(1'100'000), [&] { return mesh.Quiescent(); });

  for (std::uint32_t m = 0; m < mc.machines; ++m) {
    r.issued += stats[m].issued;
    r.completed += stats[m].completed;
    r.failed += stats[m].failed;
    r.local_reads += stats[m].local_reads;
    r.forwarded_reads += stats[m].forwarded_reads;
    r.retransmits += mesh.node_counters(m).retransmits;
    r.acked.insert(r.acked.end(), stats[m].acked_writes.begin(),
                   stats[m].acked_writes.end());
  }
  r.failovers = mesh.failovers();
  if (mesh.fault_plan() != nullptr) {
    r.partitioned = mesh.fault_plan()->counters().partitioned();
  }
  r.digest = mesh.Digest();
  if (audit) {
    AuditMesh(mesh, r.acked);
  }
  mesh.Shutdown();
  r.end = eng.RunUntilIdle();
  r.events = eng.events_processed();
  return r;
}

TEST(MeshLoadTest, CleanTransportExactOnce) {
  const LoadResult r = RunLoadScenario(nullptr, false);
  ASSERT_TRUE(r.all_done);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.local_reads, 0u);
  EXPECT_GT(r.forwarded_reads, 0u);
  // The zipf head is hot and replicated everywhere: most reads are local.
  EXPECT_GT(r.local_reads, r.forwarded_reads);
  EXPECT_EQ(r.failovers, 0u);
}

TEST(MeshLoadTest, LossyTransportExactOnce) {
  hsim::FaultConfig faults;
  faults.drop_request = 0.03;
  faults.drop_reply = 0.03;
  faults.dup_request = 0.02;
  faults.delay_request = 0.05;
  faults.seed = 99;
  const LoadResult r = RunLoadScenario(&faults, false);
  ASSERT_TRUE(r.all_done);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.retransmits, 0u);  // the loss actually bit
  // Losses must never evict a live machine: retransmits recover, the
  // directory only commits failover for a machine that is really down.
  EXPECT_EQ(r.failovers, 0u);
}

TEST(MeshLoadTest, DeterministicReplay) {
  hsim::FaultConfig faults;
  faults.drop_request = 0.02;
  faults.drop_reply = 0.02;
  faults.dup_reply = 0.02;
  faults.seed = 7;
  const LoadResult a = RunLoadScenario(&faults, false, /*audit=*/false);
  const LoadResult b = RunLoadScenario(&faults, false, /*audit=*/false);
  ASSERT_TRUE(a.all_done);
  ASSERT_TRUE(b.all_done);
  EXPECT_EQ(a.digest, b.digest);  // bit-identical replay
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retransmits, b.retransmits);
}

// Pins the simulated schedule of a lossy load run: the final tick, the
// number of engine events and the digest.  Changing how a hold or a delay is
// awaited must leave all three alone; an extra suspension or a reordered
// reservation moves them.  The digest folds every store, dedup table and the
// ledger without regard to container order, so it also pins the state a
// change of per-node containers must leave as it was.
TEST(MeshLoadTest, SchedulePin) {
  hsim::FaultConfig faults;
  faults.drop_request = 0.02;
  faults.drop_reply = 0.02;
  faults.dup_reply = 0.02;
  faults.seed = 7;
  const LoadResult r = RunLoadScenario(&faults, false, /*audit=*/false);
  ASSERT_TRUE(r.all_done);
  EXPECT_EQ(r.end, 30433u);
  EXPECT_EQ(r.events, 20116u);
  EXPECT_EQ(r.digest, 15767575689771785627u);
}

TEST(MeshLoadTest, PartitionedMachineIsNotEvicted) {
  hsim::FaultConfig faults;  // no probabilistic faults; only the window
  const LoadResult r = RunLoadScenario(&faults, /*partition_window=*/true);
  ASSERT_TRUE(r.all_done);
  // Ops stall against the partitioned machine but complete after the heal;
  // nothing is lost and -- critically -- the live machine was never evicted.
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.partitioned, 0u);   // the window actually dropped traffic
  EXPECT_GT(r.retransmits, 0u);
  EXPECT_EQ(r.failovers, 0u);
}

}  // namespace
}  // namespace hmesh
