// Consistent-hash ring coverage (ISSUE 10 satellite): seeded determinism and
// join-order independence, the <= 2/N key-movement bound on a single machine
// join or leave, and replica-set disjointness with the owner first, with or
// without an allocation.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/hmesh/ring.h"

namespace hmesh {
namespace {

constexpr std::uint64_t kKeys = 20'000;

HashRing MakeRing(std::uint32_t machines, std::uint64_t seed = 0x5eedULL,
                  std::uint32_t vnodes = 64) {
  HashRing ring(vnodes, seed);
  for (std::uint32_t m = 0; m < machines; ++m) {
    ring.AddMachine(m);
  }
  return ring;
}

TEST(HashRingTest, SeededPlacementIsDeterministic) {
  const HashRing a = MakeRing(8);
  const HashRing b = MakeRing(8);
  EXPECT_EQ(a.Digest(), b.Digest());
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(a.OwnerOf(k), b.OwnerOf(k)) << k;
  }

  // A different seed places differently (the seed is real, not decorative).
  const HashRing c = MakeRing(8, /*seed=*/0xbeef);
  EXPECT_NE(a.Digest(), c.Digest());
  std::uint64_t moved = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    moved += a.OwnerOf(k) != c.OwnerOf(k);
  }
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, PlacementIgnoresJoinOrder) {
  HashRing forward(64, 0x5eed);
  HashRing backward(64, 0x5eed);
  for (std::uint32_t m = 0; m < 6; ++m) {
    forward.AddMachine(m);
  }
  for (std::uint32_t m = 6; m-- > 0;) {
    backward.AddMachine(m);
  }
  EXPECT_EQ(forward.Digest(), backward.Digest());
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(forward.OwnerOf(k), backward.OwnerOf(k)) << k;
  }
}

TEST(HashRingTest, SingleJoinMovesAtMostTwoOverN) {
  for (std::uint32_t n : {3u, 4u, 7u}) {
    HashRing ring = MakeRing(n);
    std::vector<std::uint32_t> before(kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      before[k] = ring.OwnerOf(k);
    }
    ring.AddMachine(n);  // one machine joins
    std::uint64_t moved = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const std::uint32_t owner = ring.OwnerOf(k);
      if (owner != before[k]) {
        // Every moved key moved TO the joiner; join steals arcs, it never
        // shuffles keys between incumbents.
        ASSERT_EQ(owner, n) << k;
        ++moved;
      }
    }
    const double frac = static_cast<double>(moved) / kKeys;
    EXPECT_GT(moved, 0u) << n;
    EXPECT_LE(frac, 2.0 / (n + 1)) << "n=" << n << " moved " << frac;
  }
}

TEST(HashRingTest, SingleLeaveMovesOnlyTheLeaversKeys) {
  for (std::uint32_t n : {4u, 8u}) {
    HashRing ring = MakeRing(n);
    std::vector<std::uint32_t> before(kKeys);
    std::uint64_t owned_by_victim = 0;
    const std::uint32_t victim = n / 2;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      before[k] = ring.OwnerOf(k);
      owned_by_victim += before[k] == victim;
    }
    ring.RemoveMachine(victim);
    std::uint64_t moved = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const std::uint32_t owner = ring.OwnerOf(k);
      if (before[k] != victim) {
        // Survivors' keys do not move at all.
        ASSERT_EQ(owner, before[k]) << k;
      } else {
        ASSERT_NE(owner, victim) << k;
        ++moved;
      }
    }
    EXPECT_EQ(moved, owned_by_victim);
    EXPECT_LE(static_cast<double>(moved) / kKeys, 2.0 / n) << n;
  }
}

TEST(HashRingTest, ReplicaSetsAreDisjointAndOwnerFirst) {
  const HashRing ring = MakeRing(6);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::vector<std::uint32_t> set = ring.ReplicaSet(k, 3);
    ASSERT_EQ(set.size(), 3u) << k;
    ASSERT_EQ(set[0], ring.OwnerOf(k)) << k;
    ASSERT_NE(set[0], set[1]) << k;
    ASSERT_NE(set[0], set[2]) << k;
    ASSERT_NE(set[1], set[2]) << k;
  }
}

TEST(HashRingTest, ReplicaSetClampsToMembership) {
  const HashRing ring = MakeRing(2);
  const std::vector<std::uint32_t> set = ring.ReplicaSet(42, 5);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_NE(set[0], set[1]);
}

TEST(HashRingTest, ReplicaSetIntoWritesOnlyTheSet) {
  constexpr std::uint32_t kUnwritten = 99;
  std::vector<std::uint32_t> buf(4, kUnwritten);
  EXPECT_EQ(HashRing().ReplicaSetInto(42, 3, buf.data()), 0u);  // empty ring
  const HashRing ring = MakeRing(2);
  ASSERT_EQ(ring.ReplicaSetInto(42, 5, buf.data()), 2u);
  EXPECT_EQ(std::vector<std::uint32_t>(buf.begin(), buf.begin() + 2), ring.ReplicaSet(42, 5));
  EXPECT_EQ(buf[2], kUnwritten);
  EXPECT_EQ(buf[3], kUnwritten);
}

TEST(HashRingTest, RejoinRestoresPlacement) {
  // Crash + recover: removing a machine and adding it back restores the exact
  // pre-crash ring, so recovery re-syncs onto the same arcs it owned before.
  HashRing ring = MakeRing(5);
  const std::uint64_t digest = ring.Digest();
  ring.RemoveMachine(2);
  EXPECT_NE(ring.Digest(), digest);
  ring.AddMachine(2);
  EXPECT_EQ(ring.Digest(), digest);
}

TEST(HashRingTest, LoadSpreadIsRoughlyBalanced) {
  // 64 vnodes keeps the max/mean ownership skew modest; this is the knob the
  // mesh leans on for the scaling gate (a 3x-overloaded member would cap the
  // whole mesh's throughput).
  const HashRing ring = MakeRing(8);
  std::vector<std::uint64_t> owned(8, 0);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ++owned[ring.OwnerOf(k)];
  }
  const double mean = static_cast<double>(kKeys) / 8;
  for (std::uint32_t m = 0; m < 8; ++m) {
    EXPECT_GT(owned[m], mean * 0.5) << m;
    EXPECT_LT(owned[m], mean * 1.8) << m;
  }
}

}  // namespace
}  // namespace hmesh
