// Tests pinning down the HECTOR machine model: the paper's uncontended access
// latencies (10 / 19 / 23 cycles), atomic-swap cost and overlap, value
// ordering at memory modules, and second-order contention behaviour.

#include "src/hsim/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/hsim/engine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {
namespace {

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : machine_(&engine_, MachineConfig{}) {}

  Engine engine_;
  Machine machine_;
};

Task<void> OneLoad(Processor* p, SimWord* w, Tick* latency) {
  Tick start = p->now();
  co_await p->Load(*w);
  *latency = p->now() - start;
}

TEST_F(MachineTest, LocalLoadTakesTenCycles) {
  SimWord& w = machine_.AllocWord(/*module=*/0);
  Tick latency = 0;
  engine_.Spawn(OneLoad(&machine_.processor(0), &w, &latency));
  engine_.RunUntilIdle();
  EXPECT_EQ(latency, 10u);
}

TEST_F(MachineTest, OnStationLoadTakesNineteenCycles) {
  // Processor 0 and module 1 share station 0.
  SimWord& w = machine_.AllocWord(/*module=*/1);
  Tick latency = 0;
  engine_.Spawn(OneLoad(&machine_.processor(0), &w, &latency));
  engine_.RunUntilIdle();
  EXPECT_EQ(latency, 19u);
}

TEST_F(MachineTest, CrossRingLoadTakesTwentyThreeCycles) {
  // Module 4 is on station 1.
  SimWord& w = machine_.AllocWord(/*module=*/4);
  Tick latency = 0;
  engine_.Spawn(OneLoad(&machine_.processor(0), &w, &latency));
  engine_.RunUntilIdle();
  EXPECT_EQ(latency, 23u);
}

Task<void> OneSwap(Processor* p, SimWord* w, Tick* latency, std::uint64_t* old) {
  Tick start = p->now();
  *old = co_await p->FetchStore(*w, 42);
  *latency = p->now() - start;
}

TEST_F(MachineTest, AtomicSwapVisibleLatencyEqualsLoadLatency) {
  // The MC88100 proceeds as soon as the fetch half completes.
  SimWord& w = machine_.AllocWord(/*module=*/4, 7);
  Tick latency = 0;
  std::uint64_t old = 0;
  engine_.Spawn(OneSwap(&machine_.processor(0), &w, &latency, &old));
  engine_.RunUntilIdle();
  EXPECT_EQ(latency, 23u);
  EXPECT_EQ(old, 7u);
  EXPECT_EQ(w.value, 42u);
  // ... but the module was locked for two accesses plus the one-way trip the
  // store half makes back across the interconnect (2*10 + 13).
  EXPECT_EQ(machine_.memory(4).total_busy(), 33u);
}

Task<void> SwapThenLoadLocal(Processor* p, SimWord* remote, SimWord* local, Tick* gap) {
  co_await p->FetchStore(*remote, 1);
  Tick after_swap = p->now();
  co_await p->Load(*local);
  *gap = p->now() - after_swap;
}

TEST_F(MachineTest, SwapStoreHalfOverlapsWithLocalWork) {
  // After a swap to module 1, a local load on module 0 proceeds immediately:
  // the store half only occupies the remote module.
  SimWord& remote = machine_.AllocWord(/*module=*/1);
  SimWord& local = machine_.AllocWord(/*module=*/0);
  Tick gap = 0;
  engine_.Spawn(SwapThenLoadLocal(&machine_.processor(0), &remote, &local, &gap));
  engine_.RunUntilIdle();
  EXPECT_EQ(gap, 10u);
}

Task<void> StoreValue(Processor* p, SimWord* w, std::uint64_t v) { co_await p->Store(*w, v); }

Task<void> LoadAfter(Engine* engine, Processor* p, SimWord* w, Tick at, std::uint64_t* out) {
  co_await engine->WaitUntil(at);
  *out = co_await p->Load(*w);
}

TEST_F(MachineTest, StoresBecomeVisibleInModuleOrder) {
  SimWord& w = machine_.AllocWord(/*module=*/0, 0);
  std::uint64_t seen_early = 99;
  std::uint64_t seen_late = 99;
  engine_.Spawn(StoreValue(&machine_.processor(4), &w, 5));  // remote store, arrives ~t=9
  // A local load by processor 0 issued at t=0 reserves the module first and
  // must see the old value.
  engine_.Spawn(LoadAfter(&engine_, &machine_.processor(0), &w, 0, &seen_early));
  // A load issued well after the store completes must see the new value.
  engine_.Spawn(LoadAfter(&engine_, &machine_.processor(0), &w, 100, &seen_late));
  engine_.RunUntilIdle();
  EXPECT_EQ(seen_early, 0u);
  EXPECT_EQ(seen_late, 5u);
}

Task<void> SwapLoop(Processor* p, SimWord* w, int n) {
  for (int i = 0; i < n; ++i) {
    co_await p->FetchStore(*w, p->id());
  }
}

Task<void> TimedLoadAfter(Engine* engine, Processor* p, SimWord* w, Tick at, Tick* latency) {
  co_await engine->WaitUntil(at);
  Tick start = p->now();
  co_await p->Load(*w);
  *latency = p->now() - start;
}

TEST_F(MachineTest, ContendedLocalLoadIsDelayedByRemoteTraffic) {
  SimWord& hot = machine_.AllocWord(/*module=*/0);
  SimWord& other = machine_.AllocWord(/*module=*/0);
  for (ProcId p = 4; p < 12; ++p) {
    engine_.Spawn(SwapLoop(&machine_.processor(p), &hot, 50));
  }
  Tick latency = 0;
  engine_.Spawn(TimedLoadAfter(&engine_, &machine_.processor(0), &other, 100, &latency));
  engine_.RunUntilIdle();
  // The module is saturated by remote swaps; the local load waits in queue.
  EXPECT_GT(latency, 10u);
}

TEST_F(MachineTest, OpStatsAreCharged) {
  Processor& p = machine_.processor(0);
  SimWord& w = machine_.AllocWord(0);
  OpStats before = p.stats();
  engine_.Spawn([](Processor* proc, SimWord* word) -> Task<void> {
    co_await proc->Load(*word);
    co_await proc->Store(*word, 1);
    co_await proc->FetchStore(*word, 2);
    co_await proc->Exec(3, 2);
  }(&p, &w));
  engine_.RunUntilIdle();
  OpStats delta = p.stats() - before;
  EXPECT_EQ(delta.mem_loads, 1u);
  EXPECT_EQ(delta.mem_stores, 1u);
  EXPECT_EQ(delta.atomic_ops, 1u);
  EXPECT_EQ(delta.reg_instrs, 3u);
  EXPECT_EQ(delta.branches, 2u);
}

TEST_F(MachineTest, CompareSwapSemantics) {
  SimWord& w = machine_.AllocWord(0, 10);
  engine_.Spawn([](Processor* p, SimWord* word) -> Task<void> {
    bool ok1 = co_await p->CompareSwap(*word, 10, 20);
    EXPECT_TRUE(ok1);
    bool ok2 = co_await p->CompareSwap(*word, 10, 30);
    EXPECT_FALSE(ok2);
  }(&machine_.processor(0), &w));
  engine_.RunUntilIdle();
  EXPECT_EQ(w.value, 20u);
}

TEST_F(MachineTest, FetchAddSemantics) {
  SimWord& w = machine_.AllocWord(0, 5);
  engine_.Spawn([](Processor* p, SimWord* word) -> Task<void> {
    std::uint64_t old = co_await p->FetchAdd(*word, 3);
    EXPECT_EQ(old, 5u);
  }(&machine_.processor(0), &w));
  engine_.RunUntilIdle();
  EXPECT_EQ(w.value, 8u);
}

TEST_F(MachineTest, AllocWordsGivesContiguousZeroedRunsThatStayPut) {
  // Runs of 1..37 words (a descriptor's 14 among them), one run longer than
  // any chunk, and single words in between: enough to grow the chunks several
  // times.  Each word is tagged once handed out; a later run that reused or
  // zeroed an earlier word, or a chunk that moved, would break a tag.
  struct Run {
    SimWord* words;
    std::size_t n;
    ModuleId home;
  };
  std::vector<Run> runs;
  std::uint64_t tag = 1;
  for (std::size_t i = 0; i < 400; ++i) {
    const std::size_t n = i == 200 ? 10000 : 1 + (i * 7) % 37;
    const ModuleId home = static_cast<ModuleId>(i % machine_.num_processors());
    SimWord* words = n == 1 ? &machine_.AllocWord(home) : machine_.AllocWords(home, n);
    for (std::size_t w = 0; w < n; ++w) {
      EXPECT_EQ(words[w].value, 0u);
      EXPECT_EQ(words[w].home, home);
      EXPECT_EQ(words[w].sharers, 0u);
      EXPECT_EQ(words[w].owner, SimWord::kNoOwner);
      words[w].value = tag++;
    }
    runs.push_back({words, n, home});
  }
  tag = 1;
  for (const Run& run : runs) {
    for (std::size_t w = 0; w < run.n; ++w) {
      EXPECT_EQ(run.words[w].value, tag++);
      EXPECT_EQ(run.words[w].home, run.home);
    }
  }
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> spans;
  for (const Run& run : runs) {
    spans.emplace_back(reinterpret_cast<std::uintptr_t>(run.words),
                       reinterpret_cast<std::uintptr_t>(run.words + run.n));
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].second, spans[i].first) << "runs overlap";
  }
}

TEST_F(MachineTest, StationAssignment) {
  EXPECT_EQ(machine_.station_of(0), 0u);
  EXPECT_EQ(machine_.station_of(3), 0u);
  EXPECT_EQ(machine_.station_of(4), 1u);
  EXPECT_EQ(machine_.station_of(15), 3u);
  EXPECT_EQ(machine_.num_processors(), 16u);
}

}  // namespace
}  // namespace hsim
