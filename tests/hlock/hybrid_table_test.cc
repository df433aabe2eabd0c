// Tests for the hybrid coarse-grain / reserve-bit table (Figure 1b) and its
// fine-grained and global-lock baselines.

#include "src/hlock/hybrid_table.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hlock/fine_table.h"
#include "src/hprof/lock_site.h"

namespace hlock {
namespace {

TEST(HybridTable, AcquireCreatesAndProtects) {
  HybridTable<int, std::string> table;
  {
    auto guard = table.Acquire(7);
    ASSERT_TRUE(guard);
    guard.value() = "seven";
  }
  EXPECT_EQ(table.Peek(7), "seven");
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.Peek(8).has_value());
}

TEST(HybridTable, TryAcquireFailsWhileReserved) {
  HybridTable<int, int> table;
  auto guard = table.Acquire(1);
  ASSERT_TRUE(guard);
  // Handler-context probe from another thread: must fail, not wait.
  std::atomic<bool> failed{false};
  std::thread t([&] { failed = !table.TryAcquire(1); });
  t.join();
  EXPECT_TRUE(failed.load());
  guard.Release();
  auto second = table.TryAcquire(1);
  EXPECT_TRUE(second);
}

TEST(HybridTable, ReadersShareWritersExclude) {
  HybridTable<int, int> table;
  {
    auto w = table.Acquire(5);
    w.value() = 50;
  }
  auto r1 = table.AcquireShared(5);
  auto r2 = table.AcquireShared(5);
  ASSERT_TRUE(r1);
  ASSERT_TRUE(r2);
  EXPECT_EQ(r1.value(), 50);
  EXPECT_EQ(r2.value(), 50);
  // An exclusive probe must fail while readers hold the entry.
  EXPECT_FALSE(table.TryAcquire(5));
  r1.Release();
  EXPECT_FALSE(table.TryAcquire(5));
  r2.Release();
  EXPECT_TRUE(table.TryAcquire(5));
}

TEST(HybridTable, TryAcquireSharedFailsOnExclusive) {
  HybridTable<int, int> table;
  auto w = table.Acquire(3);
  EXPECT_FALSE(table.TryAcquireShared(3));
  w.Release();
  EXPECT_TRUE(table.TryAcquireShared(3));
}

TEST(HybridTable, EraseRefusesReservedEntries) {
  HybridTable<int, int> table;
  auto guard = table.Acquire(9);
  EXPECT_FALSE(table.Erase(9));  // reserved: handler must retry
  guard.Release();
  EXPECT_TRUE(table.Erase(9));
  EXPECT_FALSE(table.Erase(9));  // already gone
  EXPECT_EQ(table.size(), 0u);
}

TEST(HybridTable, EntriesAreRecycledTypeStably) {
  HybridTable<int, int> table(4);
  for (int round = 0; round < 100; ++round) {
    auto guard = table.Acquire(round);
    guard.value() = round;
    guard.Release();
    EXPECT_TRUE(table.Erase(round));
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(HybridTable, ExclusiveSerializesConcurrentMutators) {
  // Several threads increment the same entry under exclusive reservation;
  // updates must not be lost.  The value is a plain int: the reserve word is
  // what makes this safe.
  HybridTable<int, int> table;
  constexpr int kThreads = 4;
  constexpr int kIters = 800;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto guard = table.Acquire(42);
        guard.value() = guard.value() + 1;
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(table.Peek(42), kThreads * kIters);
}

TEST(HybridTable, IndependentKeysProceedConcurrently) {
  // One thread holds key A's reservation for a long time; another thread's
  // operations on key B complete meanwhile (the coarse lock is not held
  // across element holds).
  HybridTable<int, int> table;
  std::atomic<bool> b_done{false};
  auto a_guard = table.Acquire(1);  // long hold
  std::thread t([&] {
    for (int i = 0; i < 100; ++i) {
      auto guard = table.Acquire(2);
      guard.value() = guard.value() + 1;
    }
    b_done = true;
  });
  t.join();
  EXPECT_TRUE(b_done.load());
  EXPECT_EQ(table.Peek(2), 100);
  a_guard.Release();
}

TEST(HybridTable, WaiterAcquiresAfterHolderReleases) {
  HybridTable<int, int> table;
  auto holder = table.Acquire(11);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto guard = table.Acquire(11);  // spins on the reserve word
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load());
  holder.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(HybridTable, MoveSemanticsOfGuards) {
  HybridTable<int, int> table;
  auto a = table.Acquire(1);
  auto b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(b);
  b.Release();
  EXPECT_TRUE(table.TryAcquire(1));
}

// --- baselines ---------------------------------------------------------------

TEST(FineTable, BasicAndConcurrent) {
  FineTable<int, int> table;
  {
    auto guard = table.Acquire(1);
    guard.value() = 10;
  }
  EXPECT_EQ(table.Peek(1), 10);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        auto guard = table.Acquire(7);
        guard.value() = guard.value() + 1;
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(table.Peek(7), 2000);
}

TEST(GlobalTable, BasicAndConcurrent) {
  GlobalTable<int, int> table;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        table.With(3, [](int& v) { v = v + 1; });
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(table.Peek(3), 2000);
}

TEST(HybridTable, ReserveSiteRecordsExclusiveReservations) {
  hprof::LockSiteStats site("table/reserve");
  HybridTable<int, int> table;
  table.set_reserve_site(&site);
  {
    auto guard = table.Acquire(1);  // uncontended reserve
    guard.value() = 10;
  }
  {
    auto a = table.Acquire(1);
    auto b = table.TryAcquire(2);  // concurrent exclusive holds both record
    ASSERT_TRUE(b);
  }
  EXPECT_EQ(site.acquisitions(), 3u);
  EXPECT_EQ(site.hold().count(), 3u);
  // TryAcquire on a reserved entry fails without recording an acquisition.
  {
    auto held = table.Acquire(3);
    EXPECT_FALSE(table.TryAcquire(3));
  }
  EXPECT_EQ(site.acquisitions(), 4u);
}

// The coarse lock classifies its handoffs on the table's cluster map, like
// the reserve and chain sites: with every thread in one cluster, a handoff
// between two threads is same-cluster.
TEST(HybridTable, CoarseLockUsesTheTableClusterMap) {
  hprof::LockSiteStats site("table.coarse", kMaxThreads);
  HybridTable<int, int> table(/*num_buckets=*/16, /*procs_per_cluster=*/kMaxThreads);
  table.coarse_lock().set_site(&site);
  // Both threads stay alive until both have locked, so their dense ids
  // differ (an exited thread's id is recycled).
  std::atomic<bool> first_done{false};
  std::atomic<bool> second_done{false};
  std::thread first([&] {
    table.coarse_lock().lock();
    table.coarse_lock().unlock();
    first_done.store(true);
    while (!second_done.load()) {
      std::this_thread::yield();
    }
  });
  std::thread second([&] {
    while (!first_done.load()) {
      std::this_thread::yield();
    }
    table.coarse_lock().lock();
    table.coarse_lock().unlock();
    second_done.store(true);
  });
  first.join();
  second.join();
  EXPECT_EQ(site.acquisitions(), 2u);
  EXPECT_EQ(site.handoffs(hprof::Handoff::kSameCluster), 1u);
  EXPECT_EQ(site.handoffs(hprof::Handoff::kCrossCluster), 0u);
  EXPECT_EQ(site.handoffs(hprof::Handoff::kSameProcessor), 0u);
}

// A value whose copy is a relaxed atomic load, so Peek's unreserved copy
// does not race the writer's in-place store.  That race is a separate, known
// defect; this test is about the chain walk against inserts and erases.
struct Stamp {
  std::atomic<std::uint64_t> v{0};
  Stamp() = default;
  Stamp(const Stamp& other) : v(other.v.load(std::memory_order_relaxed)) {}
  Stamp& operator=(const Stamp& other) {
    v.store(other.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
};

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

// Chain inserts and erases sweep only the reader counters of thread ids
// issued so far, so a reader whose thread is new -- and may take a fresh id
// mid-sweep -- must still be kept off a chain being spliced.  Waves of new
// reader threads Peek while one thread inserts (Acquire on an absent key),
// stamps and erases keys on four short chains.  Every Peek must find the key
// absent, or the entry's insert-time 0, or a stamp written for that key.  A
// reader missed by a sweep walks a half-spliced chain (a data race TSan
// reports) or reads a recycled entry's stamp for another key.  Starts at
// most one thread per usable CPU.
TEST(HybridTable, FreshReadersRaceChainInsertAndErase) {
  const unsigned cpus = UsableCpus();
  if (cpus < 2) {
    GTEST_SKIP() << "needs 2 usable CPUs";
  }
  const unsigned readers = std::min(cpus - 1, 3u);
  constexpr std::uint64_t kKeys = 16;
  constexpr int kWaves = 20;
  constexpr int kPeeksPerReader = 2000;
  HybridTable<std::uint64_t, Stamp> table(/*num_buckets=*/4);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rounds{0};
  std::thread writer([&] {
    for (std::uint64_t round = 1; !stop.load(std::memory_order_relaxed); ++round) {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        table.Acquire(k).value().v.store(k << 32 | round, std::memory_order_relaxed);
      }
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        EXPECT_TRUE(table.Erase(k));
      }
      rounds.store(round, std::memory_order_relaxed);
    }
  });
  std::atomic<int> wrong{0};
  std::atomic<int> found{0};
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> pool;
    for (unsigned r = 0; r < readers; ++r) {
      pool.emplace_back([&, r] {
        for (int i = 0; i < kPeeksPerReader; ++i) {
          const std::uint64_t k = (i + r) % kKeys;
          const std::optional<Stamp> got = table.Peek(k);
          if (!got) {
            continue;
          }
          found.fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t v = got->v.load(std::memory_order_relaxed);
          if (v != 0 && v >> 32 != k) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(rounds.load(), 0u);
  EXPECT_EQ(table.size(), 0u);
  // Peeks that found nothing prove nothing: some must have met a live entry.
  EXPECT_GT(found.load(), 0);
}

}  // namespace
}  // namespace hlock
