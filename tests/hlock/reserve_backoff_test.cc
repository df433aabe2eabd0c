// Tests for ReserveCore's spin-backoff protocol, mirroring backoff_test.cc at
// the reserve-word layer.  The regression of record: the doubling delay must
// be owned by the *logical* acquire (ReserveCore::Backoff) and persist across
// SpinUntilFree round trips -- the pre-fix code re-armed it at kBaseBackoff on
// every retry, so the cap was dead code and a contended word was hammered at
// base delay forever.  The cap must also clamp the delay itself (a
// non-power-of-two cap used to be overshot on the last doubling step).
//
// A recording fake backend stands in for real memory: Load feeds the spin
// loop a scripted release point and BackoffUnits logs every (units, at_cap)
// pair.  RandomBelow returns its maximum, so the jittered delay equals the
// clamped delay exactly and the doubling sequence is directly visible.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/hlock/algo/backend.h"
#include "src/hlock/algo/reserve.h"

namespace {

struct FakeBackend {
  using Ctx = std::uint32_t;
  struct Word {
    std::uint64_t v = 0;
  };
  template <typename T>
  using TaskT = T;

  // Load observes `busy_value` until `free_after_backoffs` backoffs have been
  // recorded, then observes free.
  std::uint64_t busy_value = 1;
  std::size_t free_after_backoffs = 0;
  std::vector<std::uint64_t> units;
  std::vector<bool> at_cap;

  std::uint64_t Load(Ctx&, Word&, std::memory_order) {
    return units.size() >= free_after_backoffs ? 0 : busy_value;
  }
  void Exec(Ctx&, std::uint32_t, std::uint32_t) {}
  void BackoffUnits(Ctx&, std::uint64_t n, bool cap) {
    units.push_back(n);
    at_cap.push_back(cap);
  }
  // Maximum jitter: delay/2 + RandomBelow(delay/2 + 1) == delay (even delays),
  // so the recorded units *are* the clamped delay sequence.
  std::uint64_t RandomBelow(Ctx&, std::uint64_t bound) const {
    return bound == 0 ? 0 : bound - 1;
  }
  static void Check(bool ok, const char* message) { ASSERT_TRUE(ok) << message; }
};

using Reserve = hlock::algo::ReserveCore<FakeBackend>;

TEST(ReserveBackoffTest, DoublesFromBaseAndHoldsAtCap) {
  FakeBackend b;
  b.free_after_backoffs = 6;
  FakeBackend::Ctx ctx = 0;
  FakeBackend::Word word;
  typename Reserve::Backoff bo;
  Reserve::SpinUntilFree(b, ctx, word, /*max_backoff=*/64, bo);
  const std::vector<std::uint64_t> want{8, 16, 32, 64, 64, 64};
  EXPECT_EQ(b.units, want);
  const std::vector<bool> want_cap{false, false, false, true, true, true};
  EXPECT_EQ(b.at_cap, want_cap);
  EXPECT_EQ(bo.delay, 64u);  // the caller's state ends parked at the cap
}

TEST(ReserveBackoffTest, ClampsToNonPowerOfTwoCap) {
  FakeBackend b;
  b.free_after_backoffs = 10;
  FakeBackend::Ctx ctx = 0;
  FakeBackend::Word word;
  typename Reserve::Backoff bo;
  Reserve::SpinUntilFree(b, ctx, word, /*max_backoff=*/1000, bo);
  // 8, 16, ..., 512, then the doubling would hit 1024: the delay itself must
  // clamp to 1000, not overshoot to the next power of two.
  for (std::size_t i = 0; i < b.units.size(); ++i) {
    EXPECT_LE(b.units[i], 1000u) << "overshot the cap on round " << i;
  }
  EXPECT_EQ(b.units.back(), 1000u);
  EXPECT_FALSE(b.at_cap[6]);  // 512 < 1000
  EXPECT_TRUE(b.at_cap[7]);   // first clamped round
}

TEST(ReserveBackoffTest, CapBelowBaseClampsImmediately) {
  FakeBackend b;
  b.free_after_backoffs = 2;
  FakeBackend::Ctx ctx = 0;
  FakeBackend::Word word;
  typename Reserve::Backoff bo;
  Reserve::SpinUntilFree(b, ctx, word, /*max_backoff=*/4, bo);
  const std::vector<std::uint64_t> want{4, 4};
  EXPECT_EQ(b.units, want);
  EXPECT_TRUE(b.at_cap[0]);
}

// The bugfix pinned: one logical acquire spins, loses the re-acquire race,
// and spins again.  The second spin must continue the doubling where the
// first left off -- not re-arm at kBaseBackoff.
TEST(ReserveBackoffTest, DelayPersistsAcrossSpinCalls) {
  FakeBackend b;
  b.free_after_backoffs = 3;
  FakeBackend::Ctx ctx = 0;
  FakeBackend::Word word;
  typename Reserve::Backoff bo;
  Reserve::SpinUntilFree(b, ctx, word, /*max_backoff=*/1024, bo);
  std::vector<std::uint64_t> want{8, 16, 32};
  EXPECT_EQ(b.units, want);
  // The caller re-took the coarse lock, found the word reserved again, and
  // spins a second time with the same Backoff.
  b.free_after_backoffs = b.units.size() + 2;
  Reserve::SpinUntilFree(b, ctx, word, /*max_backoff=*/1024, bo);
  want = {8, 16, 32, 64, 128};
  EXPECT_EQ(b.units, want);
}

// The one-shot overloads are for callers whose whole retry loop is the spin:
// each call is a fresh logical acquire and starts back at the base delay.
TEST(ReserveBackoffTest, OneShotOverloadStartsFresh) {
  FakeBackend b;
  b.free_after_backoffs = 2;
  FakeBackend::Ctx ctx = 0;
  FakeBackend::Word word;
  Reserve::SpinUntilFree(b, ctx, word, /*max_backoff=*/1024);
  b.free_after_backoffs = b.units.size() + 2;
  Reserve::SpinUntilFree(b, ctx, word, /*max_backoff=*/1024);
  const std::vector<std::uint64_t> want{8, 16, 8, 16};
  EXPECT_EQ(b.units, want);
}

// SpinWhileExclusive shares the protocol: it admits any non-exclusive state
// (a reader count is not a reason to wait) and backs off identically while
// the word is exclusively reserved.
TEST(ReserveBackoffTest, SpinWhileExclusiveSharesTheProtocol) {
  FakeBackend b;
  b.busy_value = Reserve::kExclusive;
  b.free_after_backoffs = 4;
  FakeBackend::Ctx ctx = 0;
  FakeBackend::Word word;
  typename Reserve::Backoff bo;
  Reserve::SpinWhileExclusive(b, ctx, word, /*max_backoff=*/32, bo);
  const std::vector<std::uint64_t> want{8, 16, 32, 32};
  EXPECT_EQ(b.units, want);

  // A reader-held word does not delay a reader at all.
  b.units.clear();
  b.busy_value = 3;
  b.free_after_backoffs = 99;
  Reserve::SpinWhileExclusive(b, ctx, word, /*max_backoff=*/32, bo);
  EXPECT_TRUE(b.units.empty());
}

}  // namespace
