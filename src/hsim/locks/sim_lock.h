// The simulated lock algorithms of Figure 3 and the NUMA family.
//
// SimLock is the common interface the kernel and the benchmark harnesses are
// parameterized over.  SimLockOf<Core> is its one implementation: an
// algorithm core from src/hlock/algo/ -- written once over the memory-backend
// concept -- bound to SimBackend (costed Processor accesses, NUMA word homes,
// station-of-processor cluster topology).  Uncontended instruction counts
// match Figure 4 exactly; see the cores' headers.  On HECTOR the cluster of
// a processor is its station, so CNA's secondary queue parks off-station
// waiters, HMCS-T runs one local level per station, and the drw lock homes
// one reader counter per station.
//
// Acquire/Release drive each core's exclusive side (the writer side of the
// drw lock).  Everything else a core offers -- the drw reader side, HMCS-T's
// timed acquire, spin retries, MCS repairs -- is reached through core().

#ifndef HSIM_LOCKS_SIM_LOCK_H_
#define HSIM_LOCKS_SIM_LOCK_H_

#include <memory>
#include <string>
#include <utility>

#include "src/hlock/algo/cna.h"
#include "src/hlock/algo/drwlock.h"
#include "src/hlock/algo/fissile.h"
#include "src/hlock/algo/hmcs.h"
#include "src/hlock/algo/mcs.h"
#include "src/hlock/algo/spin.h"
#include "src/hprof/lock_site.h"
#include "src/hsim/locks/sim_backend.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {

class SimLock {
 public:
  virtual ~SimLock() = default;

  // Acquires the lock on behalf of processor `p`, spinning as the algorithm
  // dictates.  Every instruction and memory access is charged to `p`.
  virtual Task<void> Acquire(Processor& p) = 0;

  // Releases the lock.  Must be called by the current holder.
  virtual Task<void> Release(Processor& p) = 0;

  virtual std::string name() const = 0;

  // Attaches a profiling site (null detaches).  Recording observes simulated
  // time but never advances it: a profiled run is tick-identical to an
  // unprofiled one.  Wait/hold samples are in ticks.
  virtual void set_site(hprof::LockSiteStats* site) = 0;
  virtual hprof::LockSiteStats* site() const = 0;
};

template <template <class> class Core>
class SimLockOf : public SimLock {
 public:
  using CoreType = Core<SimBackend>;

  // `home` is the module holding the lock word; queue nodes and per-station
  // words are placed by the core.  Further arguments go to the core.
  template <class... CoreArgs>
  SimLockOf(Machine* machine, ModuleId home, CoreArgs&&... core_args)
      : backend_(machine), core_(&backend_, home, std::forward<CoreArgs>(core_args)...) {}

  Task<void> Acquire(Processor& p) override { return core_.Acquire(p); }
  Task<void> Release(Processor& p) override { return core_.Release(p); }
  std::string name() const override { return core_.name(); }

  void set_site(hprof::LockSiteStats* site) override { core_.set_site(site); }
  hprof::LockSiteStats* site() const override { return core_.site(); }

  CoreType& core() { return core_; }
  const CoreType& core() const { return core_; }

 private:
  SimBackend backend_;
  CoreType core_;
};

// The simulator spells the variant enum the same way the core does.
using McsVariant = hlock::algo::McsVariant;

using SimSpinLock = SimLockOf<hlock::algo::SpinCore>;    // (machine, home, max_backoff)
using SimMcsLock = SimLockOf<hlock::algo::McsCore>;      // (machine, home, variant)
using SimCnaLock = SimLockOf<hlock::algo::CnaCore>;
using SimHmcsTLock = SimLockOf<hlock::algo::HmcsTCore>;
using SimFissileLock = SimLockOf<hlock::algo::FissileCore>;
using SimDrwLock = SimLockOf<hlock::algo::DrwLockCore>;

// Which coarse-grained lock algorithm a simulated kernel uses.
enum class LockKind {
  kSpin35us,   // exponential backoff capped at 35 us (the kernel's value)
  kSpin2ms,    // exponential backoff capped at 2 ms (optimal for the stress tests)
  kMcs,        // unmodified Mellor-Crummey & Scott
  kMcsH1,      // MCS + modification 1 (no qnode init on the acquire path)
  kMcsH2,      // H1 + modification 2 (no successor check in release)
  kCna,        // compact NUMA-aware MCS (secondary queue of remote waiters)
  kHmcsT,      // hierarchical MCS (per-station level) with timeout
  kFissile,    // fast-path TAS over an MCS slow path
  kDrw,        // distributed RW lock (per-station reader counters + sweep);
               // Acquire/Release drive the writer side, the reader side is
               // SimDrwLock::core()'s AcquireShared/ReleaseShared
};

const char* LockKindName(LockKind kind);

// Central factory over LockKind: every harness that races the lock family
// (kernel coarse locks, stress drivers, benches, property tests) builds its
// lock here, so a new algorithm lands everywhere at once.
std::unique_ptr<SimLock> MakeSimLock(Machine* machine, LockKind kind, ModuleId home);

}  // namespace hsim

#endif  // HSIM_LOCKS_SIM_LOCK_H_
