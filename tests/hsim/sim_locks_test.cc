// Tests for the simulated lock algorithms: mutual exclusion, FIFO fairness of
// the Distributed Locks, exact Figure 4 instruction counts, queue repair, and
// reserve-bit semantics.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hsim/engine.h"
#include "src/hsim/locks/reserve_bit.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/locks/stress.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {
namespace {

struct CsState {
  int inside = 0;
  int max_inside = 0;
  std::uint64_t entries = 0;
  std::vector<ProcId> order;
};

Task<void> CriticalLoop(Processor* p, SimLock* lock, CsState* cs, int iterations, Tick hold) {
  for (int i = 0; i < iterations; ++i) {
    co_await lock->Acquire(*p);
    ++cs->inside;
    cs->max_inside = std::max(cs->max_inside, cs->inside);
    ++cs->entries;
    cs->order.push_back(p->id());
    co_await p->Compute(hold);
    --cs->inside;
    co_await lock->Release(*p);
    co_await p->Compute(5);
  }
}

class SimLockProperty : public ::testing::TestWithParam<LockKind> {};

TEST_P(SimLockProperty, MutualExclusionUnderFullContention) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  auto lock = MakeSimLock(&machine, GetParam(), 0);
  CsState cs;
  const int kIters = 40;
  for (ProcId p = 0; p < machine.num_processors(); ++p) {
    engine.Spawn(CriticalLoop(&machine.processor(p), lock.get(), &cs, kIters, /*hold=*/13));
  }
  engine.RunUntilIdle();
  EXPECT_EQ(cs.max_inside, 1) << "two processors were inside the critical section";
  EXPECT_EQ(cs.entries, static_cast<std::uint64_t>(kIters) * machine.num_processors());
}

TEST_P(SimLockProperty, MutualExclusionWithZeroHoldTime) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  auto lock = MakeSimLock(&machine, GetParam(), 0);
  CsState cs;
  for (ProcId p = 0; p < 8; ++p) {
    engine.Spawn(CriticalLoop(&machine.processor(p), lock.get(), &cs, 60, /*hold=*/0));
  }
  engine.RunUntilIdle();
  EXPECT_EQ(cs.max_inside, 1);
  EXPECT_EQ(cs.entries, 8u * 60u);
}

// Pins each kind's simulated schedule under one fixed stress run: the final
// tick, the engine event count, the acquisitions and the lock's name.  How a
// lock is bound to the simulator must leave all four alone; an extra
// suspension or a reordered memory access moves them.
struct SchedulePin {
  Tick end_tick;
  std::uint64_t events;
  std::uint64_t acquisitions;
  const char* name;
};

SchedulePin GoldenPin(LockKind kind) {
  switch (kind) {
    case LockKind::kSpin35us:
      return {35425, 11985, 168, "spin(backoff<=35.000000us)"};
    case LockKind::kSpin2ms:
      return {40871, 9255, 208, "spin(backoff<=2000.000000us)"};
    case LockKind::kMcs:
      return {34690, 29393, 248, "mcs"};
    case LockKind::kMcsH1:
      return {34631, 29336, 248, "h1-mcs"};
    case LockKind::kMcsH2:
      return {34992, 30921, 167, "h2-mcs"};
    case LockKind::kCna:
      return {35272, 31541, 161, "cna"};
    case LockKind::kHmcsT:
      return {35093, 29484, 172, "hmcs-t"};
    case LockKind::kFissile:
      return {34954, 29964, 151, "fissile"};
    case LockKind::kDrw:
      return {36375, 12952, 96, "drwlock"};
  }
  return {};
}

TEST_P(SimLockProperty, StressSchedulePin) {
  LockStressParams params;
  params.kind = GetParam();
  params.processors = 8;
  params.hold = 100;
  params.warmup = UsToTicks(100);
  params.duration = UsToTicks(2000);
  const LockStressResult r = RunLockStress(params);
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  const std::string name = MakeSimLock(&machine, GetParam(), 0)->name();
  const SchedulePin pin = GoldenPin(GetParam());
  EXPECT_EQ(r.end_tick, pin.end_tick);
  EXPECT_EQ(r.events, pin.events);
  EXPECT_EQ(r.acquisitions, pin.acquisitions);
  EXPECT_EQ(name, pin.name);
}

INSTANTIATE_TEST_SUITE_P(AllLockKinds, SimLockProperty,
                         ::testing::Values(LockKind::kSpin35us, LockKind::kSpin2ms, LockKind::kMcs,
                                           LockKind::kMcsH1, LockKind::kMcsH2, LockKind::kCna,
                                           LockKind::kHmcsT, LockKind::kFissile, LockKind::kDrw),
                         [](const ::testing::TestParamInfo<LockKind>& info) {
                           std::string n = LockKindName(info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

Task<void> AcquireOnce(Engine* engine, Processor* p, SimLock* lock, Tick at,
                       std::vector<ProcId>* order, Tick hold) {
  co_await engine->WaitUntil(at);
  co_await lock->Acquire(*p);
  order->push_back(p->id());
  co_await p->Compute(hold);
  co_await lock->Release(*p);
}

class McsVariantTest : public ::testing::TestWithParam<McsVariant> {};

TEST_P(McsVariantTest, GrantsInArrivalOrder) {
  // Distributed Locks are fair: processors are queued in order of arrival.
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  SimMcsLock lock(&machine, /*home=*/0, GetParam());
  std::vector<ProcId> order;
  // Stagger arrivals far enough apart that enqueue order is deterministic,
  // and hold the lock long enough that all processors are queued before the
  // first release (a release concurrent with an arrival can legitimately let
  // the arrival "usurp" the queue in the swap-only release).
  for (ProcId p = 0; p < 16; ++p) {
    engine.Spawn(AcquireOnce(&engine, &machine.processor(p), &lock, /*at=*/p * 40, &order,
                             /*hold=*/2000));
  }
  engine.RunUntilIdle();
  ASSERT_EQ(order.size(), 16u);
  for (ProcId p = 0; p < 16; ++p) {
    EXPECT_EQ(order[p], p) << "MCS lock granted out of arrival order";
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, McsVariantTest,
                         ::testing::Values(McsVariant::kOriginal, McsVariant::kH1,
                                           McsVariant::kH2),
                         [](const ::testing::TestParamInfo<McsVariant>& info) {
                           switch (info.param) {
                             case McsVariant::kOriginal:
                               return std::string("original");
                             case McsVariant::kH1:
                               return std::string("h1");
                             case McsVariant::kH2:
                               return std::string("h2");
                           }
                           return std::string("?");
                         });

// --- Figure 4: exact uncontended instruction counts -------------------------

struct Fig4Row {
  std::uint64_t atomic;
  std::uint64_t mem;
  std::uint64_t reg;
  std::uint64_t br;
};

Fig4Row CountUncontendedPair(LockKind kind) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  auto lock = MakeSimLock(&machine, kind, 0);
  Processor& p = machine.processor(0);
  // Warm-up pass (H1/H2 pre-initialization is part of lock construction, but
  // a warm-up also catches any accidental first-use cost).
  engine.Spawn([](Processor* proc, SimLock* l) -> Task<void> {
    co_await l->Acquire(*proc);
    co_await l->Release(*proc);
  }(&p, lock.get()));
  engine.RunUntilIdle();
  OpStats before = p.stats();
  engine.Spawn([](Processor* proc, SimLock* l) -> Task<void> {
    co_await l->Acquire(*proc);
    co_await l->Release(*proc);
  }(&p, lock.get()));
  engine.RunUntilIdle();
  OpStats d = p.stats() - before;
  return Fig4Row{d.atomic_ops, d.mem_accesses(), d.reg_instrs, d.branches};
}

TEST(Figure4Counts, McsMatchesPaper) {
  Fig4Row r = CountUncontendedPair(LockKind::kMcs);
  EXPECT_EQ(r.atomic, 2u);
  EXPECT_EQ(r.mem, 2u);
  EXPECT_EQ(r.reg, 3u);
  EXPECT_EQ(r.br, 5u);
}

TEST(Figure4Counts, H1McsMatchesPaper) {
  Fig4Row r = CountUncontendedPair(LockKind::kMcsH1);
  EXPECT_EQ(r.atomic, 2u);
  EXPECT_EQ(r.mem, 1u);
  EXPECT_EQ(r.reg, 3u);
  EXPECT_EQ(r.br, 5u);
}

TEST(Figure4Counts, H2McsMatchesPaper) {
  Fig4Row r = CountUncontendedPair(LockKind::kMcsH2);
  EXPECT_EQ(r.atomic, 2u);
  EXPECT_EQ(r.mem, 0u);
  EXPECT_EQ(r.reg, 3u);
  EXPECT_EQ(r.br, 4u);
}

TEST(Figure4Counts, SpinMatchesPaper) {
  Fig4Row r = CountUncontendedPair(LockKind::kSpin35us);
  EXPECT_EQ(r.atomic, 2u);
  EXPECT_EQ(r.mem, 0u);
  EXPECT_EQ(r.reg, 1u);
  EXPECT_EQ(r.br, 3u);
}

// --- modification-specific behaviour ----------------------------------------

TEST(McsRepair, H2AlwaysRepairsWhenSuccessorExists) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  SimMcsLock lock(&machine, /*home=*/0, McsVariant::kH2);
  std::vector<ProcId> order;
  for (ProcId p = 0; p < 4; ++p) {
    engine.Spawn(AcquireOnce(&engine, &machine.processor(p), &lock, p * 10, &order, 500));
  }
  engine.RunUntilIdle();
  // Three releases happen with a successor queued; each must repair.
  EXPECT_EQ(lock.core().repairs(), 3u);
  ASSERT_EQ(order.size(), 4u);
}

TEST(McsRepair, H1RepairsOnlyOnRaceWindow) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  SimMcsLock lock(&machine, /*home=*/0, McsVariant::kH1);
  std::vector<ProcId> order;
  // Arrivals spaced beyond the hold time: no contention, no repairs.
  for (ProcId p = 0; p < 4; ++p) {
    engine.Spawn(AcquireOnce(&engine, &machine.processor(p), &lock, p * 2000, &order, 100));
  }
  engine.RunUntilIdle();
  EXPECT_EQ(lock.core().repairs(), 0u);
}

TEST(McsRepair, UncontendedReacquireWorksAfterRepair) {
  // The queue must be intact after a repair: run many contention rounds and
  // then verify a lone acquire/release still works.
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  SimMcsLock lock(&machine, /*home=*/0, McsVariant::kH2);
  CsState cs;
  for (ProcId p = 0; p < 6; ++p) {
    engine.Spawn(CriticalLoop(&machine.processor(p), &lock, &cs, 30, 7));
  }
  engine.RunUntilIdle();
  EXPECT_EQ(cs.max_inside, 1);
  bool done = false;
  engine.Spawn([](Processor* p, SimLock* l, bool* flag) -> Task<void> {
    co_await l->Acquire(*p);
    co_await l->Release(*p);
    *flag = true;
  }(&machine.processor(9), &lock, &done));
  engine.RunUntilIdle();
  EXPECT_TRUE(done);
}

// --- reserve bits ------------------------------------------------------------

TEST(ReserveBit, ExclusiveBlocksReadersAndExclusive) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  SimWord& r = machine.AllocWord(0);
  engine.Spawn([](Processor* p, SimWord* word) -> Task<void> {
    EXPECT_TRUE(co_await SimReserve::TrySetExclusive(*p, *word));
    EXPECT_FALSE(co_await SimReserve::TrySetExclusive(*p, *word));
    EXPECT_FALSE(co_await SimReserve::TryAddReader(*p, *word));
    co_await SimReserve::ClearExclusive(*p, *word);
    EXPECT_TRUE(co_await SimReserve::TryAddReader(*p, *word));
    EXPECT_TRUE(co_await SimReserve::TryAddReader(*p, *word));
    EXPECT_FALSE(co_await SimReserve::TrySetExclusive(*p, *word));
    co_await SimReserve::RemoveReader(*p, *word);
    co_await SimReserve::RemoveReader(*p, *word);
    EXPECT_TRUE(co_await SimReserve::TrySetExclusive(*p, *word));
  }(&machine.processor(0), &r));
  engine.RunUntilIdle();
}

TEST(ReserveBit, SpinUntilFreeObservesClear) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  // The word starts exclusively reserved; the holder clears it after 1000
  // cycles of work.
  SimWord& r = machine.AllocWord(0, SimReserve::kExclusive);
  Tick waiter_done = 0;
  engine.Spawn([](Processor* p, SimWord* word) -> Task<void> {
    co_await p->Compute(1000);
    co_await SimReserve::ClearExclusive(*p, *word);
  }(&machine.processor(0), &r));
  engine.Spawn([](Processor* p, SimWord* word, Tick* done) -> Task<void> {
    co_await SimReserve::SpinUntilFree(*p, *word, UsToTicks(35));
    *done = p->now();
  }(&machine.processor(5), &r, &waiter_done));
  engine.RunUntilIdle();
  EXPECT_GE(waiter_done, 1000u);
  EXPECT_LT(waiter_done, 1000u + UsToTicks(80));  // bounded by backoff cap
}

}  // namespace
}  // namespace hsim
