// Reserve "bits": the fine-grained half of the hybrid locking strategy,
// written once over the memory backend.
//
// A reserve word is set under the protection of a coarse-grained lock using
// ordinary loads and stores (no atomic operations), may be held for a long
// time, and is cleared by its holder with a plain store.  Waiters release the
// coarse lock and spin on the reserve word with exponential backoff, then
// re-acquire the coarse lock and retry (Figure 1b).
//
// Depending on the data it protects a reserve word acts as an exclusive lock
// or as a reader-writer lock (Section 2.3): value 0 means free, kExclusive
// means exclusively reserved, any other value is a reader count.  All state
// transitions except the exclusive holder's clear happen under the coarse
// lock, so plain read-modify-write sequences are safe.
//
// The operations are stateless over a caller-owned word: the simulator runs
// them on SimWords embedded in kernel descriptors, the native HybridTable on
// reserve words embedded in its type-stable entries.  Memory orders carry the
// native publication contract: seeing 0 with an acquire load takes over the
// entry, so the previous holder's writes (published by the release store in
// ClearExclusive) must be visible.

#ifndef HLOCK_ALGO_RESERVE_H_
#define HLOCK_ALGO_RESERVE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>

#include "src/hlock/algo/backend.h"

namespace hlock::algo {

template <class B>
struct ReserveCore;

#define HLOCK_TWO_PASS_SOURCE "src/hlock/algo/reserve.h"
#include "src/hlock/algo/two_pass.h"

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_RESERVE_H_

#ifdef HLOCK_PASS
template <class B>
  requires HLOCK_PASS<B>
struct ReserveCore<B> {
  using Ctx = typename B::Ctx;
  using Word = typename B::Word;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  static constexpr std::uint64_t kFree = 0;
  static constexpr std::uint64_t kExclusive = std::numeric_limits<std::uint64_t>::max();
  static constexpr std::uint64_t kBaseBackoff = 8;

  // --- operations that require the protecting coarse lock to be held ---

  // Attempts to reserve exclusively.  Returns false if already reserved
  // (exclusively or by readers).
  static TaskT<bool> TrySetExclusive(B& b, Ctx& ctx, Word& word) {
    const std::uint64_t state = HLOCK_AWAIT b.Load(ctx, word, std::memory_order_acquire);
    HLOCK_AWAIT b.Exec(ctx, 0, 1);
    if (state != kFree) {
      HLOCK_RETURN false;
    }
    HLOCK_AWAIT b.Store(ctx, word, kExclusive, std::memory_order_relaxed);
    HLOCK_RETURN true;
  }

  // Attempts to add a reader.  Returns false if exclusively reserved.
  static TaskT<bool> TryAddReader(B& b, Ctx& ctx, Word& word) {
    const std::uint64_t state = HLOCK_AWAIT b.Load(ctx, word, std::memory_order_acquire);
    HLOCK_AWAIT b.Exec(ctx, 1, 1);
    if (state == kExclusive) {
      HLOCK_RETURN false;
    }
    // The reader count must never reach kExclusive: that increment would make
    // a fully-read-shared entry indistinguishable from an exclusive
    // reservation.  Unreachable in practice (2^64 - 2 concurrent readers),
    // but cheap, and it keeps the encoding honest under hcheck.
    B::Check(state + 1 != kExclusive, "reserve reader count saturated into kExclusive");
    HLOCK_AWAIT b.Store(ctx, word, state + 1, std::memory_order_relaxed);
    HLOCK_RETURN true;
  }

  // Drops a reader (also requires the coarse lock: reader counts are shared
  // state with no atomic update primitive).
  static TaskT<void> RemoveReader(B& b, Ctx& ctx, Word& word) {
    const std::uint64_t state = HLOCK_AWAIT b.Load(ctx, word, std::memory_order_relaxed);
    HLOCK_AWAIT b.Exec(ctx, 1, 0);
    // A decrement from 0 would wrap to kExclusive -- a phantom exclusive
    // reservation nobody can ever release.
    B::Check(state != kFree && state != kExclusive, "reserve reader release without a reader hold");
    HLOCK_AWAIT b.Store(ctx, word, state - 1, std::memory_order_relaxed);
  }

  // Reads the current state (for handlers that must fail rather than spin).
  static TaskT<std::uint64_t> Read(B& b, Ctx& ctx, Word& word) {
    HLOCK_RETURN HLOCK_AWAIT b.Load(ctx, word, std::memory_order_acquire);
  }

  // --- atomic (coarse-lock-free) transition family ---
  //
  // Once *any* reserve transition happens outside the coarse lock -- the
  // hybrid table's distributed-RW read path lets readers enter and leave
  // without it -- every transition on that word must be a real
  // read-modify-write: a plain load+store TrySetExclusive racing a CAS
  // increment would silently erase the reader.  The plain-store family above
  // stays exactly as the paper wrote it (HECTOR has no CAS; the simulated
  // kernel keeps Figure 4's instruction counts), and callers pick one family
  // per word, never mix.

  static TaskT<bool> TrySetExclusiveAtomic(B& b, Ctx& ctx, Word& word) {
    const bool won = HLOCK_AWAIT b.CompareSwap(ctx, word, kFree, kExclusive,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed);
    HLOCK_AWAIT b.Exec(ctx, 0, 1);
    HLOCK_RETURN won;
  }

  static TaskT<bool> TryAddReaderAtomic(B& b, Ctx& ctx, Word& word) {
    while (true) {
      const std::uint64_t state = HLOCK_AWAIT b.Load(ctx, word, std::memory_order_relaxed);
      HLOCK_AWAIT b.Exec(ctx, 1, 1);
      if (state == kExclusive) {
        HLOCK_RETURN false;
      }
      B::Check(state + 1 != kExclusive, "reserve reader count saturated into kExclusive");
      if (HLOCK_AWAIT b.CompareSwap(ctx, word, state, state + 1,
                                    std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
        HLOCK_RETURN true;
      }
      // Lost the race to another reader or a writer: re-read and retry
      // (bounded in practice by the reader population).
    }
  }

  static TaskT<void> RemoveReaderAtomic(B& b, Ctx& ctx, Word& word) {
    while (true) {
      const std::uint64_t state = HLOCK_AWAIT b.Load(ctx, word, std::memory_order_relaxed);
      HLOCK_AWAIT b.Exec(ctx, 1, 1);
      B::Check(state != kFree && state != kExclusive,
               "reserve reader release without a reader hold");
      if (HLOCK_AWAIT b.CompareSwap(ctx, word, state, state - 1,
                                    std::memory_order_release,
                                    std::memory_order_relaxed)) {
        HLOCK_RETURN;
      }
    }
  }

  // --- operations performed without the coarse lock ---

  // The exclusive holder clears its reservation with a plain (release) store.
  static TaskT<void> ClearExclusive(B& b, Ctx& ctx, Word& word) {
    HLOCK_AWAIT b.Store(ctx, word, kFree, std::memory_order_release);
  }

  // Backoff state for the spin protocols.  One *logical* acquire attempt may
  // call SpinUntilFree several times -- the hybrid table re-takes the coarse
  // lock, loses the race, and spins again -- and the doubling delay must
  // survive those round trips: re-arming it at kBaseBackoff on every retry
  // (the pre-unification behaviour of the simulated kernel's hand-rolled
  // loop, and of any caller that loops around the one-shot helpers) turns
  // the cap into dead code and hammers a contended word at base delay
  // forever.  Arm one Backoff per logical acquire and pass it through every
  // retry; it only resets when the caller's acquire completes.
  struct Backoff {
    std::uint64_t delay = kBaseBackoff;
  };

  // Spins (with jittered exponential backoff capped at `max_backoff`) until
  // the word is observed free.  The caller then re-acquires the coarse lock
  // and re-checks; this helper alone guarantees nothing.  `bo` persists the
  // doubling delay across retries of the same logical acquire.
  static TaskT<void> SpinUntilFree(B& b, Ctx& ctx, Word& word, std::uint64_t max_backoff,
                                   Backoff& bo) {
    HLOCK_AWAIT SpinUntil(b, ctx, word, max_backoff, bo, /*until_free=*/true);
  }

  // Spins until the word is observed *not exclusively* reserved (reader
  // admission); same caveats as SpinUntilFree.
  static TaskT<void> SpinWhileExclusive(B& b, Ctx& ctx, Word& word, std::uint64_t max_backoff,
                                        Backoff& bo) {
    HLOCK_AWAIT SpinUntil(b, ctx, word, max_backoff, bo, /*until_free=*/false);
  }

  // One-shot convenience for callers whose retry loop is the spin itself
  // (no coarse-lock round trip, so nothing outlives the call).
  static TaskT<void> SpinUntilFree(B& b, Ctx& ctx, Word& word, std::uint64_t max_backoff) {
    Backoff bo;
    HLOCK_AWAIT SpinUntil(b, ctx, word, max_backoff, bo, /*until_free=*/true);
  }

 private:
  static TaskT<void> SpinUntil(B& b, Ctx& ctx, Word& word, std::uint64_t max_backoff,
                               Backoff& bo, bool until_free) {
    while (true) {
      const std::uint64_t state = HLOCK_AWAIT b.Load(ctx, word, std::memory_order_acquire);
      HLOCK_AWAIT b.Exec(ctx, 0, 1);
      if (until_free ? state == kFree : state != kExclusive) {
        HLOCK_RETURN;
      }
      // Jitter desynchronizes waiters that were released in a convoy; the
      // doubling cap bounds the worst-case reaction time to a free word.
      // The cap clamps the delay itself (not just the growth): a caller may
      // pass a non-power-of-two cap, which the doubling would otherwise
      // overshoot on its last step.
      const std::uint64_t delay = std::min(bo.delay, max_backoff);
      const std::uint64_t jittered = delay / 2 + b.RandomBelow(ctx, delay / 2 + 1);
      HLOCK_AWAIT b.BackoffUnits(ctx, jittered, /*at_cap=*/delay >= max_backoff);
      bo.delay = std::min(delay * 2, max_backoff);
    }
  }
};
#endif  // HLOCK_PASS
