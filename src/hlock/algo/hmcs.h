// HMCS-T: hierarchical MCS lock (one level per cluster, one global level)
// with timeout, written once over the memory backend.
//
// A caller first acquires its cluster's local MCS lock, then the global one;
// holding both means holding the lock (Chabbi, Fagan & Mellor-Crummey, PPoPP
// '15).  The NUMA win is in the release: up to `threshold` times in a row the
// holder passes BOTH locks to the next waiter on its own cluster in one
// intra-cluster handoff (`kGrantedInherit`), never touching the remote global
// lock word.  When the local queue drains -- or the streak hits the
// starvation bound -- the global lock is released and the next cluster runs.
//
// The timeout composes through both levels on one deadline (the -T part,
// after HMCS-T): a waiter that gives up at either level abandons its queue
// node for releasers to reclaim (see algo/timeout_mcs.h for the abandonment
// protocol).  A waiter that times out at the global level must first
// reacquire nothing -- it already holds its local lock -- but must hand that
// local lock on before failing, so a timed-out acquire never strands its
// cluster.
//
// Per-cluster streak words are holder-only state (like CNA's secondary
// queue), published to the next holder by the grant itself.  The
// global-level node handle is host state indexed by cluster: it is written
// by whichever caller acquired the global lock for the cluster and read by
// whichever same-cluster caller eventually releases it; the grant chain's
// release/acquire ordering carries it across the handoff.

#ifndef HLOCK_ALGO_HMCS_H_
#define HLOCK_ALGO_HMCS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hlock/algo/backend.h"
#include "src/hlock/algo/timeout_mcs.h"
#include "src/hlock/padded.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

template <class B>
class HmcsTCore;

#define HLOCK_TWO_PASS_SOURCE "src/hlock/algo/hmcs.h"
#include "src/hlock/algo/two_pass.h"

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_HMCS_H_

#ifdef HLOCK_PASS
template <class B>
  requires HLOCK_PASS<B>
class HmcsTCore<B> {
 public:
  using Ctx = typename B::Ctx;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;
  using Level = TimeoutMcsCore<B>;

  // Intra-cluster handoffs in a row before the global lock is cycled.
  static constexpr std::uint64_t kDefaultThreshold = 64;

  // `home` is the module holding the global lock word; each cluster's local
  // lock word is homed on the first processor of that cluster.
  // `broken_abandon` forwards the deliberate timeout bug to both levels (a
  // timed-out waiter orphans its node; hcheck catches the lost wakeup).
  HmcsTCore(B* b, std::uint32_t home, std::uint64_t threshold = kDefaultThreshold,
            bool broken_abandon = false)
      : b_(b), threshold_(threshold), name_("hmcs-t") {
    const std::uint32_t nclusters = b_->NumClusters();
    const std::uint32_t nctxs = b_->NumCtxs();
    global_ = std::make_unique<Level>(b, home, broken_abandon);
    locals_.reserve(nclusters);
    streak_ = std::make_unique<typename B::Word[]>(nclusters);
    global_node_ = std::make_unique<Padded<std::uint64_t>[]>(nclusters);
    for (std::uint32_t c = 0; c < nclusters; ++c) {
      // Home each cluster's lock word (and streak) on its first processor.
      std::uint32_t cluster_home = home;
      for (std::uint32_t id = 0; id < nctxs; ++id) {
        if (b_->ClusterOfCtx(id) == c) {
          cluster_home = b_->HomeOf(id);
          break;
        }
      }
      locals_.push_back(std::make_unique<Level>(b, cluster_home, broken_abandon));
      b_->InitWord(streak_[c], cluster_home, 0);
      global_node_[c].value = 0;
    }
    local_node_ = std::make_unique<Padded<std::uint64_t>[]>(nctxs);
  }
  HmcsTCore(const HmcsTCore&) = delete;
  HmcsTCore& operator=(const HmcsTCore&) = delete;

  // Acquires within `deadline`; returns false on timeout (no lock held, no
  // queue node left behind -- abandoned nodes are reclaimed by releasers).
  TaskT<bool> Acquire(Ctx& ctx, typename B::Deadline& deadline) {
    const std::uint32_t id = b_->CtxId(ctx);
    const std::uint32_t cluster = b_->ClusterOfCtx(id);
    typename B::Span span = b_->AcquireSpan(ctx, name_);
    hprof::SiteProbe::Wait wait = probe_.Begin(ProbeCaller(b_, ctx));

    typename Level::Grant local = HLOCK_AWAIT locals_[cluster]->Acquire(ctx, deadline);
    if (local.node == 0) {
      b_->EndSpan(ctx, span);
      HLOCK_RETURN false;  // timed out in the local queue
    }
    local_node_[id].value = local.node;
    if (local.token == Level::kGrantedInherit) {
      // The previous same-cluster holder passed the global lock along with
      // the local one: the whole acquire was one intra-cluster handoff.
      probe_.Contend(wait, ProbeCaller(b_, ctx));
      probe_.Grant(wait, ProbeCaller(b_, ctx));
      b_->EndSpan(ctx, span);
      HLOCK_RETURN true;
    }

    typename Level::Grant global = HLOCK_AWAIT global_->Acquire(ctx, deadline);
    if (global.node == 0) {
      // Timed out at the global level while holding the local lock: hand the
      // local lock on (plain grant -- the successor must fight for the
      // global lock itself) so the cluster is not stranded.
      HLOCK_AWAIT locals_[cluster]->ReleaseWithToken(ctx, local.node, Level::kGranted);
      b_->EndSpan(ctx, span);
      HLOCK_RETURN false;
    }
    global_node_[cluster].value = global.node;
    HLOCK_AWAIT b_->Store(ctx, streak_[cluster], 0, std::memory_order_relaxed);
    if (local.contended || global.contended) {
      probe_.Contend(wait, ProbeCaller(b_, ctx));
    }
    probe_.Grant(wait, ProbeCaller(b_, ctx));
    b_->EndSpan(ctx, span);
    HLOCK_RETURN true;
  }

  // Untimed acquire: an infinite deadline never expires, so this is the
  // plain blocking HMCS algorithm.
  TaskT<void> Acquire(Ctx& ctx) {
    typename B::Deadline deadline = b_->MakeDeadline(ctx, kInfiniteBudget);
    HLOCK_AWAIT Acquire(ctx, deadline);
  }

  TaskT<void> Release(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    const std::uint32_t cluster = b_->ClusterOfCtx(id);
    std::uint64_t node = local_node_[id].value;
    probe_.Release(ProbeCaller(b_, ctx));
    b_->ReleaseInstant(ctx, name_);

    const std::uint64_t streak =
        HLOCK_AWAIT b_->Load(ctx, streak_[cluster], std::memory_order_relaxed);
    HLOCK_AWAIT b_->Exec(ctx, 1, 1);
    if (streak + 1 < threshold_) {
      // Try the one-handoff fast path: pass local AND global to the next
      // same-cluster waiter.  The streak is bumped *before* the pass -- after
      // it the successor owns the lock (and the streak word) and a late
      // write would race with its release.
      HLOCK_AWAIT b_->Store(ctx, streak_[cluster], streak + 1, std::memory_order_relaxed);
      const std::uint64_t rest =
          HLOCK_AWAIT locals_[cluster]->TryPassLocal(ctx, node, Level::kGrantedInherit);
      if (rest == 0) {
        HLOCK_RETURN;  // passed; the successor inherited the global lock
      }
      // Nobody (live) behind us in the local queue; we still hold both
      // locks.  The handle may have changed if abandoned nodes were adopted.
      node = rest;
    }
    // Cycle the global lock: the next cluster (or a late local waiter, via
    // the normal two-level acquire) runs.
    HLOCK_AWAIT b_->Store(ctx, streak_[cluster], 0, std::memory_order_relaxed);
    HLOCK_AWAIT global_->Release(ctx, global_node_[cluster].value);
    HLOCK_AWAIT locals_[cluster]->ReleaseWithToken(ctx, node, Level::kGranted);
  }

  std::uint64_t threshold() const { return threshold_; }
  const std::string& name() const { return name_; }
  Level& global_level() { return *global_; }
  Level& local_level(std::uint32_t cluster) { return *locals_[cluster]; }
  // Abandoned queue nodes reclaimed by releasers, over every level.
  std::uint64_t abandoned_nodes_reclaimed() const {
    std::uint64_t n = global_->abandoned_nodes_reclaimed();
    for (const std::unique_ptr<Level>& local : locals_) {
      n += local->abandoned_nodes_reclaimed();
    }
    return n;
  }

  // Attaches a profiling site (null detaches); recording is host-side only.
  // The wait/contention sample covers the whole two-level acquire; queue
  // residency is recorded as an instantaneous enqueue+leave at grant time
  // (per-level residency belongs to the level locks, not to this composite).
  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }
  hprof::LockSiteStats* site() const { return probe_.site(); }

 private:
  B* b_;
  std::uint64_t threshold_;
  std::string name_;
  std::unique_ptr<Level> global_;
  std::vector<std::unique_ptr<Level>> locals_;  // one per cluster
  std::unique_ptr<typename B::Word[]> streak_;  // holder-only, one per cluster
  // Host-side handles, carried across handoffs by the grant chain's ordering.
  std::unique_ptr<Padded<std::uint64_t>[]> global_node_;  // per cluster
  std::unique_ptr<Padded<std::uint64_t>[]> local_node_;   // per caller
  hprof::SiteProbe probe_;
};
#endif  // HLOCK_PASS
