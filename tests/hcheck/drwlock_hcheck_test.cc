// Model-checks the distributed reader-writer lock (algo::DrwLockCore) on the
// hcheck weak-memory model: readers on different clusters genuinely coexist,
// a writer excludes every reader (the Dekker race between reader increments
// and the flag+sweep is where acquire/release alone would lose), and writers
// exclude each other.  The writer sweeps only the clusters of thread ids
// issued so far (hcheck::Platform models the id high-water), so a reader that
// takes its id mid-sweep must still be excluded.  Three deliberately broken variants prove
// the checker can see the protocol's failure modes:
//
//   kBrokenSweep       the writer sweep skips cluster 0, so a reader there
//                      runs concurrently with the "exclusive" holder (MX
//                      violation, caught via a readers-inside counter).
//   kBrokenBoundEarly  the writer reads the sweep bound before raising the
//                      flag, so a reader that registers in between is
//                      admitted past the bound (MX violation).
//   kBrokenUnderflow   the reader backout path decrements twice, wrapping the
//                      cluster counter (the underflow Check fires).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/hcheck/checker.h"
#include "src/hcheck/platform.h"
#include "src/hlock/algo/drwlock.h"
#include "src/hlock/algo/native_backend.h"

namespace {

using B = hlock::algo::NativeBackend<hcheck::Platform>;
using DrwCore = hlock::algo::DrwLockCore<B>;
using hlock::algo::DrwBroken;

typename B::Ctx Self() { return typename B::Ctx{hcheck::Platform::ThreadId()}; }

// Two readers on different clusters hold the lock *at the same time*: the
// spawned reader enters and parks inside its hold until the main reader --
// also inside its hold -- has seen it.  If readers excluded each other this
// would deadlock; instead every schedule reaches the doubly-held state, after
// which the lock must still grant a writer.
TEST(DrwLockHcheck, ReadersOnDifferentClustersCoexist) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0);
    auto peer_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto release_peer = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([core, peer_in, release_peer] {
      auto ctx = Self();  // thread id 1: cluster 1
      core->AcquireShared(ctx);
      peer_in->store(1, std::memory_order_release);
      while (release_peer->load(std::memory_order_acquire) == 0) {
        hcheck::Yield();
      }
      core->ReleaseShared(ctx);
    });
    auto ctx = Self();  // thread id 0: cluster 0
    core->AcquireShared(ctx);
    // Both holds overlap here: we wait for the peer while still inside ours.
    while (peer_in->load(std::memory_order_acquire) == 0) {
      hcheck::Yield();
    }
    release_peer->store(1, std::memory_order_release);
    core->ReleaseShared(ctx);
    t.Join();
    // Quiescence: all counters drained, a writer gets in cleanly.
    HCHECK_ASSERT(core->TryAcquire(ctx));
    core->Release(ctx);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// A writer never overlaps a reader (or another writer).  Readers count
// themselves inside their hold; the writer asserts the population is zero for
// the whole exclusive section.  The no-spin entries must also tell the truth:
// TryAcquire fails while a reader is in (and backs the flag out),
// TryAcquireShared fails while the writer is in.
TEST(DrwLockHcheck, WriterExcludesReaders) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0);
    auto readers_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto writer_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto reader = [core, readers_in, writer_in] {
      auto ctx = Self();
      core->AcquireShared(ctx);
      readers_in->fetch_add(1, std::memory_order_relaxed);
      HCHECK_ASSERT(writer_in->load(std::memory_order_relaxed) == 0);
      // While we hold shared, an exclusive try must fail and back out.
      HCHECK_ASSERT(!core->TryAcquire(ctx));
      hcheck::Yield();
      HCHECK_ASSERT(writer_in->load(std::memory_order_relaxed) == 0);
      readers_in->fetch_sub(1, std::memory_order_relaxed);
      core->ReleaseShared(ctx);
    };
    hcheck::Thread a = hcheck::Spawn(reader);  // id 1: cluster 1
    hcheck::Thread b = hcheck::Spawn(reader);  // id 2: cluster 2
    auto ctx = Self();  // id 0: cluster 0
    core->Acquire(ctx);
    HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
    writer_in->store(1, std::memory_order_relaxed);
    // While the writer holds, the no-spin reader entry must fail.
    HCHECK_ASSERT(!core->TryAcquireShared(ctx));
    hcheck::Yield();
    HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
    writer_in->store(0, std::memory_order_relaxed);
    core->Release(ctx);
    a.Join();
    b.Join();
    HCHECK_ASSERT(core->TryAcquire(ctx));
    core->Release(ctx);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// Writer/writer exclusion through the standalone write path (wmutex), plus
// lock reusability at quiescence.
TEST(DrwLockHcheck, WritersExcludeEachOther) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/2);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto writer = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx);
      mx->Enter();
      mx->Exit();
      core->Release(ctx);
    };
    hcheck::Thread t = hcheck::Spawn(writer);
    writer();
    t.Join();
    HCHECK_ASSERT(mx->entries() == 2);
    auto ctx = Self();
    HCHECK_ASSERT(core->TryAcquire(ctx));
    core->Release(ctx);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// A reader that takes its thread id only once the writer has begun to
// arrive: its cluster may lie past the bound the writer's sweep reads, so
// exclusion rests on the bound being read after the flag store.  The writer
// takes the embedder path (WriterArrive/WriterDepart under its own writer
// mutex), which is how a HybridTable chain insert excludes readers.  Run with
// DrwBroken::kNone it must pass; with kBrokenBoundEarly it must fail.
hcheck::Result CheckReaderRegisteringMidSweep(DrwBroken broken) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  return hcheck::Check(opts, [broken] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0, broken);
    auto arriving = std::make_shared<hcheck::Atomic<int>>(0);
    auto readers_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto writer_in = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread reader = hcheck::Spawn([core, arriving, readers_in, writer_in] {
      while (arriving->load(std::memory_order_acquire) == 0) {
        hcheck::Yield();
      }
      auto ctx = Self();  // first id use: raises the high-water to 2
      core->AcquireShared(ctx);
      readers_in->store(1, std::memory_order_relaxed);
      HCHECK_ASSERT(writer_in->load(std::memory_order_relaxed) == 0);
      hcheck::Yield();
      HCHECK_ASSERT(writer_in->load(std::memory_order_relaxed) == 0);
      readers_in->store(0, std::memory_order_relaxed);
      core->ReleaseShared(ctx);
    });
    auto ctx = Self();  // id 0: the high-water is 1, one cluster in use
    arriving->store(1, std::memory_order_release);
    core->WriterArrive(ctx);
    HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
    writer_in->store(1, std::memory_order_relaxed);
    hcheck::Yield();
    HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
    writer_in->store(0, std::memory_order_relaxed);
    core->WriterDepart(ctx);
    reader.Join();
  });
}

TEST(DrwLockHcheck, ReaderRegisteringMidSweepIsExcluded) {
  const hcheck::Result res = CheckReaderRegisteringMidSweep(DrwBroken::kNone);
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

TEST(DrwLockHcheck, BrokenBoundEarlyViolatesExclusion) {
  const hcheck::Result res = CheckReaderRegisteringMidSweep(DrwBroken::kBrokenBoundEarly);
  EXPECT_TRUE(res.failed) << "hcheck failed to catch the sweep bound read before the flag";
}

// The broken sweep never looks at cluster 0, so the writer is granted while
// the cluster-0 reader is still inside: the readers-inside assertion fires on
// the very first schedule that stages the overlap (which the gates below make
// every schedule).
TEST(DrwLockHcheck, BrokenSweepViolatesExclusion) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0,
                                          DrwBroken::kBrokenSweep);
    auto readers_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto writer_done = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread writer = hcheck::Spawn([core, readers_in, writer_done] {
      auto ctx = Self();  // id 1: cluster 1 (swept; cluster 0 is skipped)
      while (readers_in->load(std::memory_order_acquire) == 0) {
        hcheck::Yield();
      }
      core->Acquire(ctx);
      HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
      core->Release(ctx);
      writer_done->store(1, std::memory_order_release);
    });
    auto ctx = Self();  // id 0: cluster 0, the skipped counter
    core->AcquireShared(ctx);
    readers_in->store(1, std::memory_order_release);
    while (writer_done->load(std::memory_order_acquire) == 0) {
      hcheck::Yield();
    }
    readers_in->store(0, std::memory_order_relaxed);
    core->ReleaseShared(ctx);
    writer.Join();
  });
  EXPECT_TRUE(res.failed) << "hcheck failed to catch the broken drwlock sweep";
}

// The broken backout decrements the cluster counter twice; the second
// decrement finds it already at zero and the underflow Check fires.  The
// gate guarantees the reader's increment happens while the writer flag is up,
// so every schedule walks straight into the backout path.
TEST(DrwLockHcheck, BrokenUnderflowCaughtInBackout) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0,
                                          DrwBroken::kBrokenUnderflow);
    auto writer_holds = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread reader = hcheck::Spawn([core, writer_holds] {
      auto ctx = Self();
      while (writer_holds->load(std::memory_order_acquire) == 0) {
        hcheck::Yield();
      }
      // Flag is up: the increment backs out, and the broken double decrement
      // underflows the counter we no longer hold.
      core->AcquireShared(ctx);
      core->ReleaseShared(ctx);
    });
    auto ctx = Self();
    core->Acquire(ctx);
    writer_holds->store(1, std::memory_order_release);
    hcheck::Yield();
    core->Release(ctx);
    reader.Join();
  });
  EXPECT_TRUE(res.failed) << "hcheck failed to catch the drwlock reader-count underflow";
}

}  // namespace
