// Pins the BasicLockFreeCounter::Update return-value contract, the free
// list's lock-freedom introspection, and its tagged one-word head.
//
// Update's contract is fetch_add-style: it returns the value held immediately
// BEFORE fn was applied.  A refactor that returns the post-update value
// instead silently shifts every "was this the transition?" caller by one
// step, and no existing test would have noticed -- this one does.

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "src/hlock/lock_free.h"

namespace {

TEST(LockFreeCounterContract, UpdateReturnsPreUpdateValue) {
  hlock::LockFreeCounter counter;
  counter.Add(41);
  // fetch_add-style: the return is the old value, the counter holds f(old).
  EXPECT_EQ(counter.Update([](std::int64_t v) { return v + 1; }), 41);
  EXPECT_EQ(counter.Read(), 42);
  // Non-monotonic fn: still old-value-out.
  EXPECT_EQ(counter.Update([](std::int64_t v) { return v * -1; }), 42);
  EXPECT_EQ(counter.Read(), -42);
  // Identity fn: the "update" is a no-op but the return is still the
  // (unchanged) pre-update value.
  EXPECT_EQ(counter.Update([](std::int64_t v) { return v; }), -42);
  EXPECT_EQ(counter.Read(), -42);
}

TEST(LockFreeCounterContract, ConcurrentUpdatesEachSeeDistinctPreValues) {
  // Every Update(v -> v+1) must return a unique pre-value: if two threads
  // ever saw the same "old", an increment was lost or the return contract
  // broke.  4 threads x 1000 increments -> pre-values are exactly 0..3999.
  hlock::LockFreeCounter counter;
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  std::vector<std::vector<std::int64_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &seen, t] {
      for (int i = 0; i < kIters; ++i) {
        seen[t].push_back(counter.Update([](std::int64_t v) { return v + 1; }));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.Read(), kThreads * kIters);
  std::vector<bool> hit(kThreads * kIters, false);
  for (const auto& vals : seen) {
    for (std::int64_t v : vals) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, kThreads * kIters);
      EXPECT_FALSE(hit[v]) << "pre-value " << v << " returned twice";
      hit[v] = true;
    }
  }
}

// The head is one 64-bit word, so the completion path is lock-free on every
// default build -- no libatomic fallback behind the "lock-free" name.
static_assert(hlock::LockFreeFreeList::kHeadIsAlwaysLockFree);

TEST(LockFreeFreeListContract, LockFreedomIntrospectionIsConsistent) {
  EXPECT_TRUE(hlock::LockFreeFreeList::kHeadIsAlwaysLockFree);
  hlock::LockFreeFreeList list;
  hlock::LockFreeNode a, b;
  list.Push(&a);
  list.Push(&b);
  EXPECT_EQ(list.Pop(), &b);
  EXPECT_EQ(list.Pop(), &a);
  EXPECT_EQ(list.Pop(), nullptr);
}

TEST(LockFreeFreeListContract, HighAddressNodeRoundTripsAndTagAdvances) {
  // mmap hands out the top of the user address space (just below 2^47 on
  // x86-64), the range that must survive packing into the head's 48-bit
  // pointer field next to the tag.
  const std::size_t len = 4096;
  void* page = mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* high = new (page) hlock::LockFreeNode;
#if defined(__x86_64__)
  EXPECT_GE(reinterpret_cast<std::uintptr_t>(high), std::uintptr_t{1} << 46);
#endif
  hlock::LockFreeNode low;

  hlock::LockFreeFreeList list;
  std::uint16_t tag = list.tag();
  const auto expect_step = [&] {
    EXPECT_EQ(list.tag(), static_cast<std::uint16_t>(tag + 1));
    tag = list.tag();
  };
  list.Push(&low);
  expect_step();
  list.Push(high);
  expect_step();
  EXPECT_EQ(list.Pop(), high);
  expect_step();
  EXPECT_EQ(list.Pop(), &low);
  expect_step();
  EXPECT_EQ(list.Pop(), nullptr);
  EXPECT_EQ(list.tag(), tag);  // a Pop of an empty list changes nothing
  EXPECT_TRUE(list.empty());

  // The tag wraps mod 2^16 without disturbing the pointer bits.
  for (int i = 0; i < (1 << 16); ++i) {
    list.Push(high);
    ASSERT_EQ(list.Pop(), high);
  }
  EXPECT_EQ(list.tag(), tag);
  list.Push(high);
  EXPECT_EQ(list.Pop(), high);
  EXPECT_TRUE(list.empty());
  munmap(page, len);
}

}  // namespace
