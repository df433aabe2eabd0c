// Unit tests for the per-cluster page-descriptor hash table.

#include "src/hkernel/page_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/hkernel/desc_arena.h"
#include "src/hkernel/kernel.h"
#include "src/hsim/engine.h"
#include "src/hsim/locks/reserve_bit.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"

namespace hkernel {
namespace {

class PageTableTest : public ::testing::Test {
 protected:
  PageTableTest()
      : machine_(&engine_, hsim::MachineConfig{}),
        table_(&machine_, {0}, /*num_bins=*/8, /*capacity=*/16) {}

  // Runs a table operation synchronously on processor 0.
  template <typename F>
  void Run(F&& f) {
    engine_.Spawn(f(&machine_.processor(0), &table_));
    engine_.RunUntilIdle();
  }

  hsim::Engine engine_;
  hsim::Machine machine_;
  PageHashTable table_;
};

TEST_F(PageTableTest, LookupMissesOnEmptyTable) {
  Run([](hsim::Processor* p, PageHashTable* t) -> hsim::Task<void> {
    EXPECT_EQ(co_await t->Lookup(*p, 42), kNilDesc);
  });
}

TEST_F(PageTableTest, InsertThenLookupHits) {
  Run([](hsim::Processor* p, PageHashTable* t) -> hsim::Task<void> {
    DescRef ref = co_await t->Insert(*p, 42);
    EXPECT_NE(ref, kNilDesc);
    EXPECT_EQ(co_await t->Lookup(*p, 42), ref);
    EXPECT_EQ(t->desc(ref).page().value, 42u);
  });
  EXPECT_EQ(table_.live(), 1u);
}

TEST_F(PageTableTest, ManyKeysWithChainCollisions) {
  // 12 keys in 8 bins force chains; all must be found.
  Run([](hsim::Processor* p, PageHashTable* t) -> hsim::Task<void> {
    for (std::uint64_t k = 100; k < 112; ++k) {
      EXPECT_NE(co_await t->Insert(*p, k), kNilDesc);
    }
    for (std::uint64_t k = 100; k < 112; ++k) {
      EXPECT_NE(co_await t->Lookup(*p, k), kNilDesc) << "key " << k;
    }
    EXPECT_EQ(co_await t->Lookup(*p, 99), kNilDesc);
    EXPECT_EQ(co_await t->Lookup(*p, 112), kNilDesc);
  });
  EXPECT_EQ(table_.live(), 12u);
}

TEST_F(PageTableTest, RemoveUnlinksFromChainMiddleAndHead) {
  Run([](hsim::Processor* p, PageHashTable* t) -> hsim::Task<void> {
    for (std::uint64_t k = 0; k < 12; ++k) {
      co_await t->Insert(*p, 200 + k);
    }
    // Remove half, in mixed order.
    for (std::uint64_t k : {3, 0, 11, 7, 5, 9}) {
      EXPECT_TRUE(co_await t->Remove(*p, 200 + k));
    }
    for (std::uint64_t k = 0; k < 12; ++k) {
      const bool removed = (k == 3 || k == 0 || k == 11 || k == 7 || k == 5 || k == 9);
      EXPECT_EQ(co_await t->Lookup(*p, 200 + k) == kNilDesc, removed) << "key " << k;
    }
  });
  EXPECT_EQ(table_.live(), 6u);
}

TEST_F(PageTableTest, RemoveMissingReturnsFalse) {
  Run([](hsim::Processor* p, PageHashTable* t) -> hsim::Task<void> {
    co_await t->Insert(*p, 1);
    EXPECT_FALSE(co_await t->Remove(*p, 2));
    EXPECT_TRUE(co_await t->Remove(*p, 1));
    EXPECT_FALSE(co_await t->Remove(*p, 1));
  });
}

TEST_F(PageTableTest, PoolIsTypeStableAcrossReuse) {
  // Freed descriptors are reused for descriptors only, and the reserve word
  // is left in a defined state -- a late spinner never observes garbage.
  Run([](hsim::Processor* p, PageHashTable* t) -> hsim::Task<void> {
    DescRef a = co_await t->Insert(*p, 7);
    hsim::SimWord* reserve = &t->desc(a).reserve();
    EXPECT_TRUE(co_await t->Remove(*p, 7));
    // Fill the pool; the freed slot must be handed out again.
    bool reused = false;
    for (std::uint64_t k = 0; k < 16; ++k) {
      DescRef r = co_await t->Insert(*p, 1000 + k);
      if (r == a) {
        reused = true;
        EXPECT_EQ(&t->desc(r).reserve(), reserve);
      }
    }
    EXPECT_TRUE(reused);
    EXPECT_EQ(reserve->value, hsim::SimReserve::kFree);
  });
}

TEST_F(PageTableTest, PoolExhaustionReturnsNil) {
  Run([](hsim::Processor* p, PageHashTable* t) -> hsim::Task<void> {
    for (std::uint64_t k = 0; k < 16; ++k) {
      EXPECT_NE(co_await t->Insert(*p, k), kNilDesc);
    }
    EXPECT_EQ(co_await t->Insert(*p, 99), kNilDesc);
    // Freeing one slot makes insertion possible again.
    EXPECT_TRUE(co_await t->Remove(*p, 5));
    EXPECT_NE(co_await t->Insert(*p, 99), kNilDesc);
  });
}

TEST_F(PageTableTest, LookupCostGrowsWithChainLength) {
  // The table walks simulated memory: longer chains must take longer, which
  // is exactly what bounds how long the coarse lock is held.
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  PageHashTable small(&machine, {0}, /*num_bins=*/1, /*capacity=*/32);  // one chain
  hsim::Tick first = 0;
  hsim::Tick last = 0;
  engine.Spawn([](hsim::Processor* p, PageHashTable* t, hsim::Tick* f,
                  hsim::Tick* l) -> hsim::Task<void> {
    for (std::uint64_t k = 0; k < 16; ++k) {
      co_await t->Insert(*p, k);
    }
    hsim::Tick t0 = p->now();
    co_await t->Lookup(*p, 15);  // head of the chain (inserted last)
    *f = p->now() - t0;
    t0 = p->now();
    co_await t->Lookup(*p, 0);  // tail of the chain
    *l = p->now() - t0;
  }(&machine.processor(0), &small, &first, &last));
  engine.RunUntilIdle();
  EXPECT_GT(last, first * 5);
}

// Checks every descriptor of `arena` against the construction that kept
// each field in its own word: descriptor i (ref i + 1) is homed on
// cluster_modules[i / opc][(i % opc) % size] (opc = objects per cluster), and
// its fields start as page 0, next kNilDesc, reserve kFree, flags 0,
// ref_count 0, replicas 0 and payload 0.
void ExpectParentLayout(const DescriptorArena& arena,
                        const std::vector<std::vector<hsim::ModuleId>>& cluster_modules) {
  const std::uint32_t opc = arena.objects_per_cluster();
  std::vector<const hsim::SimWord*> seen;
  for (std::uint64_t i = 0; i < arena.capacity(); ++i) {
    const std::vector<hsim::ModuleId>& modules = cluster_modules[i / opc];
    const hsim::ModuleId home = modules[(i % opc) % modules.size()];
    const PageDescriptor d = arena.desc(static_cast<DescRef>(i + 1));
    std::vector<std::pair<const hsim::SimWord*, std::uint64_t>> words = {
        {&d.page(), 0},
        {&d.next(), kNilDesc},
        {&d.reserve(), hsim::SimReserve::kFree},
        {&d.flags(), 0},
        {&d.ref_count(), 0},
        {&d.replicas(), 0},
    };
    for (std::uint32_t w = 0; w < KernelConfig::kPayloadWords; ++w) {
      words.emplace_back(&d.payload(w), 0);
    }
    ASSERT_EQ(words.size(), PageDescriptor::kWords);
    for (const auto& [word, initial] : words) {
      EXPECT_EQ(word->home, home) << "descriptor " << i;
      EXPECT_EQ(word->value, initial) << "descriptor " << i;
      EXPECT_EQ(word->sharers, 0u);
      EXPECT_EQ(word->owner, hsim::SimWord::kNoOwner);
      seen.push_back(word);
    }
  }
  std::sort(seen.begin(), seen.end(), std::less<>());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end()) << "a word is shared";
}

TEST(DescriptorArenaTest, WordsKeepTheirHomesAndInitialValues) {
  // Clusters of 4 with 1 to 4 modules each, so the round-robin wraps at
  // different points in each cluster.
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  const std::vector<std::vector<hsim::ModuleId>> modules = {
      {0}, {4, 5}, {8, 9, 10}, {12, 13, 14, 15}};
  const DescriptorArena arena(&machine, /*cluster_size=*/4, /*objects_per_cluster=*/7,
                              /*magazine_size=*/2, modules);
  ASSERT_EQ(arena.capacity(), 28u);
  ExpectParentLayout(arena, modules);
}

TEST(DescriptorArenaTest, KernelArenaKeepsEachClustersDescriptorsOnItsFirstModule) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  KernelSystem system(&machine, KernelConfig{});
  const DescriptorArena& arena = system.desc_arena();
  std::vector<std::vector<hsim::ModuleId>> modules;
  for (std::uint32_t c = 0; c < system.num_clusters(); ++c) {
    modules.push_back({static_cast<hsim::ModuleId>(c * system.config().cluster_size)});
  }
  ASSERT_EQ(arena.capacity(), std::uint64_t{KernelConfig{}.table_capacity} * modules.size());
  ExpectParentLayout(arena, modules);
}

}  // namespace
}  // namespace hkernel
