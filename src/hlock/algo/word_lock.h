// The CAS word lock, written once over the memory backend: a word that is 0
// when free and 1 when held, taken by CAS and released by a plain store.
//
// It is the lock of the allocators' caches, depot and shared pool, and the
// writer mutex of the distributed RW lock.  A lost CAS backs off by a
// doubling delay in backend time units (PollBackoff), as in Figure 3c's spin
// lock: fixed-interval polling of a *remote* word keeps its home memory
// module saturated -- delaying the very release store being waited for.  The
// same pacing serves every poll of a word whose change is another context's
// release: the RW lock's flag wait and writer sweep step a PollBackoff too.
//
// Per attempt: CompareSwap(0 -> 1, acquire / relaxed), Exec(1, 1), and on a
// lost race BackoffUnits(delay, delay >= cap).  Release: Store(0, release),
// Exec(0, 1).

#ifndef HLOCK_ALGO_WORD_LOCK_H_
#define HLOCK_ALGO_WORD_LOCK_H_

#include <atomic>
#include <cstdint>

#include "src/hlock/algo/backend.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

// The pacing of one poll loop: each step backs off by a delay doubling from
// kBase to kCap backend time units.
class PollBackoff {
 public:
  static constexpr std::uint64_t kBase = 16;
  static constexpr std::uint64_t kCap = 512;

  template <class B>
  auto Step(B* b, typename B::Ctx& ctx) {
    const std::uint64_t delay = delay_;
    delay_ = delay_ < kCap ? delay_ * 2 : kCap;
    return b->BackoffUnits(ctx, delay, delay >= kCap);
  }

 private:
  std::uint64_t delay_ = kBase;
};

#define HLOCK_TWO_PASS_SOURCE "src/hlock/algo/word_lock.h"
#include "src/hlock/algo/two_pass.h"

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_WORD_LOCK_H_

#ifdef HLOCK_PASS
// Takes the word lock.  A profiled caller passes its probe and this
// acquire's wait episode: the first lost CAS enqueues the caller on the
// probe's site; the grant stays with the caller.
template <class B>
  requires HLOCK_PASS<B>
typename B::template TaskT<void> LockWord(B* b, typename B::Ctx& ctx, typename B::Word& word,
                                          const hprof::SiteProbe* probe = nullptr,
                                          hprof::SiteProbe::Wait* wait = nullptr) {
  PollBackoff poll;
  while (true) {
    const bool won = HLOCK_AWAIT b->CompareSwap(ctx, word, 0, 1, std::memory_order_acquire,
                                                std::memory_order_relaxed);
    HLOCK_AWAIT b->Exec(ctx, 1, 1);
    if (won) {
      HLOCK_RETURN;
    }
    if (probe != nullptr) {
      probe->Contend(*wait, ProbeCaller(b, ctx));
    }
    HLOCK_AWAIT poll.Step(b, ctx);
  }
}

template <class B>
  requires HLOCK_PASS<B>
typename B::template TaskT<void> UnlockWord(B* b, typename B::Ctx& ctx, typename B::Word& word,
                                            std::memory_order mo = std::memory_order_release) {
  HLOCK_AWAIT b->Store(ctx, word, 0, mo);
  HLOCK_AWAIT b->Exec(ctx, 0, 1);
}
#endif  // HLOCK_PASS
