// Unit tests for the discrete-event engine: time ordering, determinism,
// run-until semantics, and waits that cross the timing wheel's horizon.

#include "src/hsim/engine.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/hsim/task.h"

namespace hsim {
namespace {

Task<void> RecordAt(Engine* engine, std::vector<std::pair<Tick, int>>* log, Tick at, int id) {
  co_await engine->WaitUntil(at);
  log->emplace_back(engine->now(), id);
}

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<std::pair<Tick, int>> log;
  engine.Spawn(RecordAt(&engine, &log, 30, 3));
  engine.Spawn(RecordAt(&engine, &log, 10, 1));
  engine.Spawn(RecordAt(&engine, &log, 20, 2));
  engine.RunUntilIdle();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<Tick, int>{10, 1}));
  EXPECT_EQ(log[1], (std::pair<Tick, int>{20, 2}));
  EXPECT_EQ(log[2], (std::pair<Tick, int>{30, 3}));
}

TEST(EngineTest, TiesResolveInSpawnOrder) {
  Engine engine;
  std::vector<std::pair<Tick, int>> log;
  for (int i = 0; i < 5; ++i) {
    engine.Spawn(RecordAt(&engine, &log, 7, i));
  }
  engine.RunUntilIdle();
  ASSERT_EQ(log.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(log[i].second, i);
  }
}

Task<void> Ticker(Engine* engine, int* count, int n, Tick step) {
  for (int i = 0; i < n; ++i) {
    co_await engine->Delay(step);
    ++*count;
  }
}

TEST(EngineTest, RunUntilStopsAtBoundary) {
  Engine engine;
  int count = 0;
  engine.Spawn(Ticker(&engine, &count, 10, 5));
  EXPECT_FALSE(engine.RunUntil(24));  // events remain
  EXPECT_EQ(count, 4);                // ticks at 5,10,15,20
  EXPECT_EQ(engine.now(), 24u);
  engine.RunUntilIdle();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(engine.now(), 50u);
}

TEST(EngineTest, RunUntilInThePastDoesNotRewind) {
  Engine engine;
  int count = 0;
  engine.Spawn(Ticker(&engine, &count, 5, 10));
  EXPECT_FALSE(engine.RunUntil(25));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(engine.now(), 25u);
  EXPECT_FALSE(engine.RunUntil(5));  // in the past: nothing runs
  EXPECT_EQ(count, 2);
  EXPECT_EQ(engine.now(), 25u);
  engine.RunUntilIdle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(engine.now(), 50u);
  EXPECT_TRUE(engine.RunUntil(0));
  EXPECT_EQ(engine.now(), 50u);
}

TEST(EngineTest, WaitsBeyondTheWheelRunInTimeOrder) {
  constexpr Tick kW = Engine::kWheelTicks;
  Engine engine;
  std::vector<std::pair<Tick, int>> log;
  const std::vector<Tick> ticks = {5 * kW, 3, kW, kW - 1, 2 * kW + 7, 100 * kW, kW + 1, 0};
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    engine.Spawn(RecordAt(&engine, &log, ticks[i], static_cast<int>(i)));
  }
  int slow = 0;
  int fast = 0;
  engine.Spawn(Ticker(&engine, &slow, 4, 3 * kW + 5));  // idle gaps longer than the wheel
  engine.Spawn(Ticker(&engine, &fast, 50, 1));
  EXPECT_EQ(engine.RunUntilIdle(), 100 * kW);
  EXPECT_EQ(slow, 4);
  EXPECT_EQ(fast, 50);
  ASSERT_EQ(log.size(), ticks.size());
  std::vector<Tick> sorted = ticks;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].first, sorted[i]);
    EXPECT_EQ(ticks[static_cast<std::size_t>(log[i].second)], sorted[i]);
  }
}

Task<void> WaitTwice(Engine* engine, std::vector<std::pair<Tick, int>>* log, Tick first,
                     Tick second, int id) {
  co_await engine->WaitUntil(first);
  co_await engine->WaitUntil(second);
  log->emplace_back(engine->now(), id);
}

TEST(EngineTest, FarAndDirectWaitsForOneTickResumeInSchedulingOrder) {
  constexpr Tick kW = Engine::kWheelTicks;
  constexpr Tick kTarget = 2 * kW;
  Engine engine;
  std::vector<std::pair<Tick, int>> log;
  // Direct: scheduled at the first tick from which kTarget is inside the wheel.
  engine.Spawn(WaitTwice(&engine, &log, kTarget - kW + 1, kTarget, 0));
  // Far: scheduled at tick 0.
  engine.Spawn(RecordAt(&engine, &log, kTarget, 1));
  engine.Spawn(RecordAt(&engine, &log, kTarget, 2));
  // Direct: scheduled one tick before kTarget.
  engine.Spawn(WaitTwice(&engine, &log, kTarget - 1, kTarget, 3));
  // Far: scheduled at the last tick from which kTarget is outside the wheel.
  engine.Spawn(WaitTwice(&engine, &log, kTarget - kW, kTarget, 4));
  engine.RunUntilIdle();
  ASSERT_EQ(log.size(), 5u);
  const std::vector<int> order = {1, 2, 4, 0, 3};
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i], (std::pair<Tick, int>{kTarget, order[i]}));
  }
}

TEST(EngineTest, RunUntilPastTheWheelThenIdle) {
  constexpr Tick kW = Engine::kWheelTicks;
  Engine engine;
  int count = 0;
  std::vector<std::pair<Tick, int>> log;
  engine.Spawn(Ticker(&engine, &count, 10, 700));
  engine.Spawn(RecordAt(&engine, &log, 3 * kW + 500, 0));  // far, after the boundary
  engine.Spawn(RecordAt(&engine, &log, 2 * kW, 1));        // far, before it
  EXPECT_FALSE(engine.RunUntil(3 * kW));
  EXPECT_EQ(engine.now(), 3 * kW);
  EXPECT_EQ(count, 4);  // 700, 1400, 2100, 2800
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair<Tick, int>{2 * kW, 1}));
  EXPECT_EQ(engine.RunUntilIdle(), 7000u);
  EXPECT_EQ(count, 10);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], (std::pair<Tick, int>{3 * kW + 500, 0}));
}

struct Resumption {
  Tick at;
  std::uint64_t scheduled;  // global schedule counter when the wait began
};

Task<void> RandomWaits(Engine* engine, std::mt19937_64* rng, std::uint64_t* counter,
                       std::vector<Resumption>* log, int waits) {
  for (int i = 0; i < waits; ++i) {
    const Tick delay = (*rng)() % (3 * Engine::kWheelTicks + 1);
    const std::uint64_t scheduled = (*counter)++;
    co_await engine->Delay(delay);
    if (delay != 0) {  // a zero delay does not suspend
      log->push_back(Resumption{engine->now(), scheduled});
    }
  }
}

TEST(EngineTest, RandomWaitsResumeInTickThenSchedulingOrder) {
  Engine engine;
  std::mt19937_64 rng(20240613);
  std::uint64_t counter = 0;
  std::vector<Resumption> log;
  for (int task = 0; task < 64; ++task) {
    engine.Spawn(RandomWaits(&engine, &rng, &counter, &log, 200));
  }
  engine.RunUntilIdle();
  EXPECT_EQ(engine.live_tasks(), 0u);
  EXPECT_EQ(counter, 64u * 200u);
  EXPECT_EQ(engine.events_processed(), log.size());
  int ties = 0;
  for (std::size_t i = 1; i < log.size(); ++i) {
    const auto prev = std::tie(log[i - 1].at, log[i - 1].scheduled);
    const auto cur = std::tie(log[i].at, log[i].scheduled);
    EXPECT_LT(prev, cur) << "resumption " << i;
    ties += log[i - 1].at == log[i].at ? 1 : 0;
  }
  EXPECT_GT(ties, 0);  // the order check covered same-tick waits
}

TEST(EngineTest, PastDeadlinesDoNotSuspend) {
  Engine engine;
  int count = 0;
  engine.Spawn(Ticker(&engine, &count, 3, 0));  // Delay(0) is ready immediately
  engine.RunUntilIdle();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(engine.now(), 0u);
}

TEST(EngineTest, LiveTaskAccounting) {
  Engine engine;
  int count = 0;
  engine.Spawn(Ticker(&engine, &count, 2, 10));
  engine.Spawn(Ticker(&engine, &count, 2, 10));
  EXPECT_EQ(engine.live_tasks(), 2u);
  engine.RunUntilIdle();
  EXPECT_EQ(engine.live_tasks(), 0u);
}

TEST(EngineTest, DeterministicReplay) {
  auto run = [] {
    Engine engine;
    std::vector<std::pair<Tick, int>> log;
    for (int i = 0; i < 8; ++i) {
      engine.Spawn(RecordAt(&engine, &log, (i * 37) % 11, i));
    }
    engine.RunUntilIdle();
    return log;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hsim
