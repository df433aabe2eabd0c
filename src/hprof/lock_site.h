// Per-lock-site contention statistics -- the lockstat analogue for this repo.
//
// A "lock site" is one lock instance worth attributing contention to: a
// cluster's page-table coarse lock, a program's per-cluster region lock, the
// shared lock of a Figure-5 stress run, or a native hlock primitive.  Every
// instrumentable lock carries an optional LockSiteStats* (null by default);
// when null the hook is a pointer test and the lock's behaviour -- including
// every simulated instruction and memory access -- is bit-identical to the
// uninstrumented build.  Recording is a pure host-side observer: it never
// advances simulated time.
//
// What a site records (the paper's Section 4.1 / Figures 4-5 signals):
//   - acquisitions and contended acquisitions (the acquirer had to wait),
//   - wait-time and hold-time histograms (ticks; the owner converts via the
//     table's ticks_per_us): bounded hmetrics::Histograms, so a site's tail
//     covers every acquisition of a long campaign at fixed memory,
//   - maximum queue depth observed (concurrent waiters),
//   - a handoff matrix counting owner transitions by NUMA distance:
//     same-processor, same-cluster, cross-cluster -- the signal NUMA-aware
//     locks (Dice & Kogan's compact NUMA-aware locks, RMA locks) are built
//     around.
//
// Thread-safety: the under-lock calls (RecordAcquire by the new owner,
// RecordRelease by the current owner) are already serialized by the profiled
// lock for exclusive locks, but shared users (the hybrid table's reserve
// sites, where multiple entries are held concurrently) are not; a tiny
// internal spin mutex makes recording safe either way.  EnterQueue/LeaveQueue
// happen while *waiting*, concurrently by design, and use atomics only.
// Under hcheck the internal mutex is never contended (exactly one virtual
// thread runs between schedule points, and recording contains no schedule
// points), so instrumentation cannot mask or add interleavings.

#ifndef HPROF_LOCK_SITE_H_
#define HPROF_LOCK_SITE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "src/hmetrics/histogram.h"
#include "src/hmetrics/json.h"

namespace hprof {

inline constexpr const char* kLockProfSchema = "hurricane-lockprof/1";

// NUMA distance of an owner-to-owner transition.
enum class Handoff : int {
  kSameProcessor = 0,  // the previous owner re-acquired
  kSameCluster = 1,    // new owner in the previous owner's cluster
  kCrossCluster = 2,   // handoff crossed a cluster (station/ring) boundary
};

class LockSiteStats;

// Per-thread observer of lock-site events, for request-scoped attribution
// (hflight's phase ledger).  A site calls the installed observer *after* its
// own bookkeeping, outside the internal spin mutex, on the acquiring /
// releasing thread itself -- so a thread that armed an observer sees exactly
// the waits and holds it personally incurred.  When no observer is armed the
// hook is a thread-local load and a branch.
//
// This is a native-threads facility: under hsim many coroutines interleave on
// one host thread, so sim harnesses stamp their flight records directly
// instead of arming an observer.
class WaitObserver {
 public:
  virtual ~WaitObserver() = default;
  // The calling thread was granted `site` after waiting `wait` ticks.
  // `handoff` classifies the transition from the previous owner
  // (kSameProcessor when there was no previous owner).
  virtual void OnLockWait(const LockSiteStats& site, std::uint64_t wait,
                          bool contended, Handoff handoff) = 0;
  // The calling thread released `site` after holding it `hold` ticks.
  virtual void OnLockHold(const LockSiteStats& site, std::uint64_t hold) = 0;
};

inline WaitObserver*& ThreadWaitObserver() {
  thread_local WaitObserver* observer = nullptr;
  return observer;
}

class LockSiteStats {
 public:
  // `procs_per_cluster` maps owner ids to clusters for handoff
  // classification: HECTOR stations group 4 processor-memory modules; the
  // kernel's clusters group config.cluster_size processors; native locks
  // group dense thread ids (1 = every handoff that changes owner is
  // cross-cluster, the conservative default).
  explicit LockSiteStats(std::string name, std::uint32_t procs_per_cluster = 1)
      : name_(std::move(name)),
        procs_per_cluster_(procs_per_cluster == 0 ? 1 : procs_per_cluster) {}
  LockSiteStats(const LockSiteStats&) = delete;
  LockSiteStats& operator=(const LockSiteStats&) = delete;

  static Handoff Classify(std::uint32_t prev_owner, std::uint32_t new_owner,
                          std::uint32_t procs_per_cluster) {
    if (prev_owner == new_owner) {
      return Handoff::kSameProcessor;
    }
    if (procs_per_cluster == 0) {
      procs_per_cluster = 1;
    }
    return prev_owner / procs_per_cluster == new_owner / procs_per_cluster
               ? Handoff::kSameCluster
               : Handoff::kCrossCluster;
  }

  // Monotonic host clock in nanoseconds, for native (non-simulated) locks
  // whose wait/hold intervals are wall time.  Simulated locks pass ticks of
  // simulated time instead and never call this.
  static std::uint64_t NowTicks() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // Called by the new owner the moment it holds the lock.  `wait` is the
  // acquire latency in ticks; `contended` whether the acquirer had to wait
  // (spin retry, queue predecessor, reserved entry).  This overload derives
  // the owner's cluster from the id-division convention; hierarchical locks
  // (whose queue nodes carry real topology) use the explicit-cluster
  // overload below for exact handoff attribution.
  void RecordAcquire(std::uint32_t owner, std::uint64_t wait, bool contended) {
    RecordAcquire(owner, wait, contended, owner / procs_per_cluster_);
  }

  // Exact-attribution overload: `cluster` is the acquirer's cluster as the
  // *lock* knows it -- captured at enqueue time from the backend topology,
  // not re-derived from grant order.  Handoff classification compares the
  // recorded clusters of consecutive owners.
  void RecordAcquire(std::uint32_t owner, std::uint64_t wait, bool contended,
                     std::uint32_t cluster) {
    // No previous owner means no handoff: report kSameProcessor (not cross)
    // to the observer below.
    Handoff handoff = Handoff::kSameProcessor;
    {
      SpinGuard guard(&mu_);
      ++acquisitions_;
      if (contended) {
        ++contended_;
      }
      wait_.Record(wait);
      if (has_last_owner_) {
        Handoff h = Handoff::kCrossCluster;
        if (last_owner_ == owner) {
          h = Handoff::kSameProcessor;
        } else if (last_owner_cluster_ == cluster) {
          h = Handoff::kSameCluster;
        }
        ++handoffs_[static_cast<int>(h)];
        handoff = h;
      }
      last_owner_ = owner;
      last_owner_cluster_ = cluster;
      has_last_owner_ = true;
      ClusterShare& share = by_cluster_[cluster];
      ++share.acquisitions;
      share.wait_ticks += wait;
    }
    if (WaitObserver* obs = ThreadWaitObserver()) {
      obs->OnLockWait(*this, wait, contended, handoff);
    }
  }

  // Called by the owner at release; `hold` is the critical-section length in
  // ticks (the caller timed its own hold -- sites with concurrent holders,
  // like reserve bits, cannot share one start-timestamp slot).
  void RecordRelease(std::uint64_t hold) {
    {
      SpinGuard guard(&mu_);
      hold_.Record(hold);
    }
    if (WaitObserver* obs = ThreadWaitObserver()) {
      obs->OnLockHold(*this, hold);
    }
  }

  // Waiter-side queue-depth tracking: call EnterQueue when starting to wait,
  // LeaveQueue once granted (or on abandoning the attempt).
  void EnterQueue() {
    const std::uint32_t depth = 1 + queue_depth_.fetch_add(1, std::memory_order_relaxed);
    std::uint32_t seen = max_queue_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_queue_depth_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
    }
  }
  // Enqueue-time cluster capture: in addition to depth tracking, counts the
  // waiter against its cluster the moment it joins the queue -- the exact
  // signal hierarchical locks reorder (a CNA secondary queue defers exactly
  // these waiters), so reports can compare offered vs granted mix.
  void EnterQueue(std::uint32_t cluster) {
    EnterQueue();
    SpinGuard guard(&mu_);
    ++by_cluster_[cluster].enqueues;
  }
  void LeaveQueue() { queue_depth_.fetch_sub(1, std::memory_order_relaxed); }

  // --- accessors (quiescent reads; tests and exporters) -----------------------
  const std::string& name() const { return name_; }
  std::uint32_t procs_per_cluster() const { return procs_per_cluster_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended() const { return contended_; }
  std::uint64_t uncontended() const { return acquisitions_ - contended_; }
  std::uint64_t handoffs(Handoff h) const { return handoffs_[static_cast<int>(h)]; }
  std::uint32_t max_queue_depth() const {
    return max_queue_depth_.load(std::memory_order_relaxed);
  }
  const hmetrics::Histogram& wait() const { return wait_; }
  const hmetrics::Histogram& hold() const { return hold_; }
  std::uint64_t total_wait_ticks() const { return wait_.sum(); }

  // Which clusters acquired this lock, and how long each waited in aggregate.
  struct ClusterShare {
    std::uint64_t acquisitions = 0;
    std::uint64_t wait_ticks = 0;
    std::uint64_t enqueues = 0;  // contended waits recorded at enqueue time
  };
  const std::map<std::uint32_t, ClusterShare>& by_cluster() const { return by_cluster_; }

  void WriteJson(hmetrics::JsonWriter* w) const {
    w->BeginObject();
    w->Field("name", name_);
    w->Field("procs_per_cluster", std::uint64_t{procs_per_cluster_});
    w->Field("acquisitions", acquisitions_);
    w->Field("contended", contended_);
    w->Field("max_queue_depth", std::uint64_t{max_queue_depth()});
    w->Key("wait");
    w->BeginObject();
    hmetrics::WriteSummary(w, wait_);
    w->EndObject();
    w->Key("hold");
    w->BeginObject();
    hmetrics::WriteSummary(w, hold_);
    w->EndObject();
    w->Key("handoffs");
    w->BeginObject();
    w->Field("same_processor", handoffs(Handoff::kSameProcessor));
    w->Field("same_cluster", handoffs(Handoff::kSameCluster));
    w->Field("cross_cluster", handoffs(Handoff::kCrossCluster));
    w->EndObject();
    w->Key("by_cluster");
    w->BeginObject();
    for (const auto& [cluster, share] : by_cluster_) {
      w->Key(std::to_string(cluster));
      w->BeginObject();
      w->Field("acquisitions", share.acquisitions);
      w->Field("wait_sum", share.wait_ticks);
      w->Field("enqueues", share.enqueues);
      w->EndObject();
    }
    w->EndObject();
    w->EndObject();
  }

 private:
  // Minimal TTAS mutex on a std::atomic_flag: hprof sits below hlock in the
  // dependency order, so it cannot borrow hlock's spin locks.
  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag* f) : flag(f) {
      while (flag->test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { flag->clear(std::memory_order_release); }
    std::atomic_flag* flag;
  };

  std::string name_;
  std::uint32_t procs_per_cluster_;
  std::atomic_flag mu_ = ATOMIC_FLAG_INIT;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
  std::uint64_t handoffs_[3] = {0, 0, 0};
  std::uint32_t last_owner_ = 0;
  std::uint32_t last_owner_cluster_ = 0;
  bool has_last_owner_ = false;
  hmetrics::Histogram wait_;
  hmetrics::Histogram hold_;
  std::map<std::uint32_t, ClusterShare> by_cluster_;
  std::atomic<std::uint32_t> queue_depth_{0};
  std::atomic<std::uint32_t> max_queue_depth_{0};
};

// The profiling session: a named collection of lock sites with stable
// addresses (locks cache the LockSiteStats* they are handed).  Exported as a
// hurricane-lockprof/1 JSON document, the input format of the hprof CLI.
class SiteTable {
 public:
  // `ticks_per_us` converts the sites' tick histograms for reporting: 16 for
  // the HECTOR simulator, 1000 for native locks timed in nanoseconds.
  explicit SiteTable(double ticks_per_us = 1.0) : ticks_per_us_(ticks_per_us) {}
  SiteTable(const SiteTable&) = delete;
  SiteTable& operator=(const SiteTable&) = delete;

  LockSiteStats& AddSite(std::string name, std::uint32_t procs_per_cluster = 1) {
    sites_.emplace_back(std::move(name), procs_per_cluster);
    return sites_.back();
  }

  double ticks_per_us() const { return ticks_per_us_; }
  std::size_t size() const { return sites_.size(); }
  const LockSiteStats& site(std::size_t i) const { return sites_[i]; }
  LockSiteStats& site(std::size_t i) { return sites_[i]; }

  void WriteJson(hmetrics::JsonWriter* w) const {
    w->BeginObject();
    w->Field("schema", kLockProfSchema);
    w->Field("ticks_per_us", ticks_per_us_);
    w->Key("sites");
    w->BeginArray();
    for (const LockSiteStats& s : sites_) {
      s.WriteJson(w);
    }
    w->EndArray();
    w->EndObject();
  }

  std::string ToJson() const {
    hmetrics::JsonWriter w;
    WriteJson(&w);
    return w.Take();
  }

 private:
  double ticks_per_us_;
  std::deque<LockSiteStats> sites_;  // deque: stable addresses across AddSite
};

}  // namespace hprof

#endif  // HPROF_LOCK_SITE_H_
