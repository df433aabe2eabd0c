// Distributed reader-writer lock: per-cluster reader counters, written once
// over the memory backend.
//
// The reserve-word protocol (reserve.h) counts readers in one shared word, so
// every reader entry bounces the same cache line -- and in the hybrid table
// every reader transition additionally funnels through the coarse chain lock.
// This lock distributes the reader side the way "High-Performance Distributed
// RMA Locks" evaluates: each cluster owns a padded counter word homed in that
// cluster's memory module, so an uncontended reader entry/exit touches only
// local memory.  A writer raises a global flag and then *sweeps* the cluster
// counters, waiting for each to drain; readers that arrive while the flag is
// up back their increment out and spin locally until the flag clears.
//
// Writer/writer exclusion is a separate single word (`wmutex`), deliberately
// split from the flag+sweep protocol (WriterArrive / WriterDepart) so an
// embedding structure that already serializes its writers -- the hybrid
// table's coarse chain lock -- can reuse that lock as the writer mutex and
// pay only for the sweep.
//
// Memory orders (the table in DESIGN.md): reader increment (CAS success) and
// the flag load after it are seq_cst, and so are the writer's flag store and
// sweep loads -- the two sides form a store-load (Dekker) race that acquire/
// release alone would not order: a reader could publish its increment too
// late for the sweep while reading a stale flag.  Reader exit decrements with
// release (the sweep's loads take over the entry after all reader reads
// retire); WriterDepart clears the flag with release (publishing the writer's
// writes to the readers it admits).
//
// The sweep covers clusters [0, B::ClustersInUse()), not every counter: a
// native process with 8 live threads in one-thread clusters sweeps 8
// counters, not kMaxThreads.  The writer reads that bound (natively a
// seq_cst load of hlock::ThreadIdHighWater) once, *after* its seq_cst flag
// store.  A reader whose id was issued after the bound load published the id
// with a seq_cst store that follows the load in the total order, and its
// increment and flag load follow that; so it reads the flag raised and backs
// out.  Every other reader's cluster is below the bound.
//
// Deliberate-bug knobs for the model checker (tests/hcheck/drwlock_*):
// kBrokenSweep skips cluster 0 in the writer sweep (a reader there
// coexists with the writer -- hcheck catches the exclusion violation);
// kBrokenBoundEarly reads the sweep bound before the flag store (a reader
// that takes a fresh id in between is admitted past the bound);
// kBrokenUnderflow double-decrements in the reader backout path (the counter
// underflow check fires, or a phantom reader admission breaks exclusion).

#ifndef HLOCK_ALGO_DRWLOCK_H_
#define HLOCK_ALGO_DRWLOCK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/hlock/algo/backend.h"
#include "src/hlock/algo/word_lock.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

enum class DrwBroken : std::uint8_t {
  kNone,
  kBrokenSweep,      // writer sweep skips cluster 0
  kBrokenBoundEarly, // writer reads the sweep bound before raising the flag
  kBrokenUnderflow,  // reader backout decrements twice
};

template <class B>
class DrwLockCore;

#define HLOCK_TWO_PASS_SOURCE "src/hlock/algo/drwlock.h"
#include "src/hlock/algo/two_pass.h"

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_DRWLOCK_H_

#ifdef HLOCK_PASS
template <class B>
  requires HLOCK_PASS<B>
class DrwLockCore<B> {
 public:
  using Ctx = typename B::Ctx;
  using Word = typename B::Word;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  // `home` places the writer-side words (flag + writer mutex); each cluster's
  // reader counter is homed at that cluster's first context's module, which
  // is what makes the reader fast path local in the simulator.
  explicit DrwLockCore(B* b, std::uint32_t home = 0, DrwBroken broken = DrwBroken::kNone)
      : b_(b),
        broken_(broken),
        num_clusters_(b->NumClusters()),
        counters_(new PaddedWord[b->NumClusters()]),
        name_("drwlock"),
        readers_(new hprof::SiteProbe[b->NumCtxs()]) {
    b_->InitWord(wflag_, home, 0);
    b_->InitWord(wmutex_, home, 0);
    for (std::uint32_t c = 0; c < num_clusters_; ++c) {
      b_->InitWord(counters_[c].w, ClusterHome(*b_, c), 0);
    }
  }
  DrwLockCore(const DrwLockCore&) = delete;
  DrwLockCore& operator=(const DrwLockCore&) = delete;

  // --- reader side ----------------------------------------------------------

  TaskT<void> AcquireShared(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    const std::uint32_t cluster = b_->ClusterOfCtx(id);
    hprof::SiteProbe& probe = readers_[id];
    hprof::SiteProbe::Wait wait = probe.Begin(ProbeCaller(b_, ctx));
    Word& counter = counters_[cluster].w;
    while (true) {
      HLOCK_AWAIT BumpReader(ctx, counter);
      const std::uint64_t flag = HLOCK_AWAIT b_->Load(ctx, wflag_, std::memory_order_seq_cst);
      HLOCK_AWAIT b_->Exec(ctx, 0, 1);
      if (flag == 0) {
        break;  // admitted: the sweep (if any) will wait for our count
      }
      // A writer is (or was) sweeping: back the increment out so the sweep
      // can complete, then spin locally until the flag clears.
      HLOCK_AWAIT DropReader(ctx, counter, std::memory_order_release);
      if (broken_ == DrwBroken::kBrokenUnderflow) {
        // BUG (deliberate, for hcheck): a second decrement releases a count
        // we never held -- underflow, or a phantom admission for a racing
        // reader whose increment we just erased.
        HLOCK_AWAIT DropReader(ctx, counter, std::memory_order_release);
      }
      probe.Contend(wait, ProbeCaller(b_, ctx));
      PollBackoff poll;
      while (true) {
        const std::uint64_t f = HLOCK_AWAIT b_->Load(ctx, wflag_, std::memory_order_relaxed);
        HLOCK_AWAIT b_->Exec(ctx, 0, 1);
        if (f == 0) {
          break;
        }
        // Doubling delay, not fixed-interval polling: the flag's home module
        // also serves the writer's release store, and every waiting reader is
        // polling the same word.
        HLOCK_AWAIT poll.Step(b_, ctx);
      }
    }
    probe.Grant(wait, ProbeCaller(b_, ctx));
  }

  // No-spin reader entry for handler context: false if a writer holds or is
  // sweeping the lock.
  TaskT<bool> TryAcquireShared(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    const std::uint32_t cluster = b_->ClusterOfCtx(id);
    Word& counter = counters_[cluster].w;
    HLOCK_AWAIT BumpReader(ctx, counter);
    const std::uint64_t flag = HLOCK_AWAIT b_->Load(ctx, wflag_, std::memory_order_seq_cst);
    HLOCK_AWAIT b_->Exec(ctx, 0, 1);
    if (flag != 0) {
      HLOCK_AWAIT DropReader(ctx, counter, std::memory_order_release);
      HLOCK_RETURN false;
    }
    readers_[id].GrantAtOnce(ProbeCaller(b_, ctx));
    HLOCK_RETURN true;
  }

  TaskT<void> ReleaseShared(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    readers_[id].Release(ProbeCaller(b_, ctx));
    HLOCK_AWAIT DropReader(ctx, counters_[b_->ClusterOfCtx(id)].w,
                           std::memory_order_release);
  }

  // --- writer side ----------------------------------------------------------
  // Named like every other core's exclusive side, so the lock adapters drive
  // the writer path through the same Acquire/TryAcquire/Release calls.

  TaskT<void> Acquire(Ctx& ctx) {
    typename B::Span span = b_->AcquireSpan(ctx, name_);
    hprof::SiteProbe::Wait wait = writer_.Begin(ProbeCaller(b_, ctx));
    HLOCK_AWAIT LockWord(b_, ctx, wmutex_, &writer_, &wait);
    HLOCK_AWAIT WriterArriveTimed(ctx, wait);
    b_->EndSpan(ctx, span);
  }

  // No-spin writer entry: false if another writer holds the mutex *or* any
  // reader is in -- the flag is backed out rather than waited on.
  TaskT<bool> TryAcquire(Ctx& ctx) {
    const bool won = HLOCK_AWAIT b_->CompareSwap(ctx, wmutex_, 0, 1,
                                                 std::memory_order_acquire,
                                                 std::memory_order_relaxed);
    HLOCK_AWAIT b_->Exec(ctx, 1, 1);
    if (!won) {
      HLOCK_RETURN false;
    }
    HLOCK_AWAIT b_->Store(ctx, wflag_, 1, std::memory_order_seq_cst);
    const std::uint32_t bound = b_->ClustersInUse();  // after the flag store
    for (std::uint32_t c = 0; c < bound; ++c) {
      const std::uint64_t readers =
          HLOCK_AWAIT b_->Load(ctx, counters_[c].w, std::memory_order_seq_cst);
      HLOCK_AWAIT b_->Exec(ctx, 0, 1);
      if (readers != 0) {
        HLOCK_AWAIT b_->Store(ctx, wflag_, 0, std::memory_order_release);
        HLOCK_AWAIT b_->Store(ctx, wmutex_, 0, std::memory_order_release);
        HLOCK_RETURN false;
      }
    }
    writer_.GrantAtOnce(ProbeCaller(b_, ctx));
    HLOCK_RETURN true;
  }

  TaskT<void> Release(Ctx& ctx) {
    writer_.Release(ProbeCaller(b_, ctx));
    b_->ReleaseInstant(ctx, name_);
    HLOCK_AWAIT b_->Store(ctx, wflag_, 0, std::memory_order_release);
    HLOCK_AWAIT b_->Store(ctx, wmutex_, 0, std::memory_order_release);
    HLOCK_AWAIT b_->Exec(ctx, 0, 1);
  }

  // --- flag + sweep, for embedders that bring their own writer mutex -------
  // The caller must hold whatever serializes its writers (the hybrid table's
  // coarse chain lock) across Arrive..Depart; this pair only excludes
  // *readers*.

  TaskT<void> WriterArrive(Ctx& ctx) {
    const hprof::SiteProbe::Wait wait = writer_.Begin(ProbeCaller(b_, ctx));
    HLOCK_AWAIT WriterArriveTimed(ctx, wait);
  }

  TaskT<void> WriterDepart(Ctx& ctx) {
    writer_.Release(ProbeCaller(b_, ctx));
    HLOCK_AWAIT b_->Store(ctx, wflag_, 0, std::memory_order_release);
    HLOCK_AWAIT b_->Exec(ctx, 0, 1);
  }

  // --- introspection / profiling -------------------------------------------

  std::uint32_t num_clusters() const { return num_clusters_; }
  const std::string& name() const { return name_; }

  // Attaches reader/writer profiling sites (null detaches; they may differ --
  // reader holds and writer holds are different histograms).  Recording is
  // host-side only, so a profiled run is operation-identical to an
  // unprofiled one.  Not thread-safe against concurrent lock users.
  void set_sites(hprof::LockSiteStats* reader_site, hprof::LockSiteStats* writer_site) {
    for (std::uint32_t id = 0; id < b_->NumCtxs(); ++id) {
      readers_[id].set_site(reader_site);
    }
    writer_.set_site(writer_site);
  }
  // The single-site interface every core has: the writer side, which is the
  // side Acquire/Release drive.
  void set_site(hprof::LockSiteStats* site) { writer_.set_site(site); }
  hprof::LockSiteStats* site() const { return writer_.site(); }

 private:
  // One counter per cluster, each on its own cache line: the whole point is
  // that cluster-local reader traffic never invalidates a remote line.
  struct alignas(64) PaddedWord {
    Word w;
  };

  // CAS-increment (HECTOR-style swap-only hardware never runs this lock; the
  // beyond-the-paper locks already assume CAS, see backend.h).
  TaskT<void> BumpReader(Ctx& ctx, Word& counter) {
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (true) {
      const std::uint64_t v = HLOCK_AWAIT b_->Load(ctx, counter, std::memory_order_relaxed);
      HLOCK_AWAIT b_->Exec(ctx, 1, 1);
      if (HLOCK_AWAIT b_->CompareSwap(ctx, counter, v, v + 1,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
        HLOCK_RETURN;
      }
      HLOCK_AWAIT b_->SpinPause(ctx, sw);
    }
  }

  TaskT<void> DropReader(Ctx& ctx, Word& counter, std::memory_order ok_mo) {
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (true) {
      const std::uint64_t v = HLOCK_AWAIT b_->Load(ctx, counter, std::memory_order_relaxed);
      HLOCK_AWAIT b_->Exec(ctx, 1, 1);
      // A decrement from 0 would wrap into a phantom reader population no
      // sweep could ever drain.
      B::Check(v != 0, "drwlock reader count underflow");
      if (HLOCK_AWAIT b_->CompareSwap(ctx, counter, v, v - 1, ok_mo,
                                      std::memory_order_relaxed)) {
        HLOCK_RETURN;
      }
      HLOCK_AWAIT b_->SpinPause(ctx, sw);
    }
  }

  // Waits for the counters of clusters [0, bound) to drain.  seq_cst loads:
  // they are the writer's half of the Dekker race against reader increments.
  // The bound is read after the flag store (header comment).
  TaskT<void> Sweep(Ctx& ctx, std::uint32_t bound) {
    std::uint32_t first = 0;
    if (broken_ == DrwBroken::kBrokenSweep && num_clusters_ > 1) {
      // BUG (deliberate, for hcheck): never looks at cluster 0, so a reader
      // there runs concurrently with the "exclusive" holder.
      first = 1;
    }
    for (std::uint32_t c = first; c < bound; ++c) {
      PollBackoff poll;
      while (true) {
        const std::uint64_t readers =
            HLOCK_AWAIT b_->Load(ctx, counters_[c].w, std::memory_order_seq_cst);
        HLOCK_AWAIT b_->Exec(ctx, 0, 1);
        if (readers == 0) {
          break;
        }
        // Back off between polls: the sweep's loads occupy the counter's home
        // module, which is exactly where the drain decrements must land.
        HLOCK_AWAIT poll.Step(b_, ctx);
      }
    }
  }

  // Raises the flag and sweeps; the writer is granted once the sweep is done.
  TaskT<void> WriterArriveTimed(Ctx& ctx, const hprof::SiteProbe::Wait& wait) {
    std::uint32_t early_bound = 0;
    if (broken_ == DrwBroken::kBrokenBoundEarly) {
      // BUG (deliberate, for hcheck): a reader that takes a fresh id between
      // this load and the flag store lands past the bound, reads the flag
      // still down, and is never swept.
      early_bound = b_->ClustersInUse();
    }
    HLOCK_AWAIT b_->Store(ctx, wflag_, 1, std::memory_order_seq_cst);
    HLOCK_AWAIT Sweep(ctx, broken_ == DrwBroken::kBrokenBoundEarly ? early_bound
                                                                  : b_->ClustersInUse());
    writer_.Grant(wait, ProbeCaller(b_, ctx));
  }

  B* b_;
  DrwBroken broken_;
  std::uint32_t num_clusters_;
  Word wflag_;   // nonzero = a writer is sweeping or holding
  Word wmutex_;  // writer/writer exclusion for the standalone write path
  std::unique_ptr<PaddedWord[]> counters_;  // per-cluster reader populations
  std::string name_;
  // Readers hold concurrently, so each context has its own reader probe (its
  // hold stamp written by that context only); the writer probe's stamp is
  // owner-written under the lock.
  std::unique_ptr<hprof::SiteProbe[]> readers_;
  hprof::SiteProbe writer_;
};
#endif  // HLOCK_PASS
