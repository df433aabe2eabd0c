// Native NUMA-aware locks: CNA, HMCS-T, Fissile, and the distributed
// reader-writer lock.
//
// The algorithm bodies live in src/hlock/algo/{cna,hmcs,fissile,drwlock}.h,
// written once over the memory-backend concept; each lock here is that core
// run by NativeLock (native_lock.h), exactly like the MCS locks in
// mcs_locks.h.  Constructor arguments after `procs_per_cluster` go to the
// core: CnaLock(ppc, max_streak), HmcsTLock(ppc, threshold),
// FissileLock(ppc, fast_attempts), DrwLock(ppc, preference).
//
// Native hardware gives no topology oracle, so the cluster map is a
// modelling knob: `procs_per_cluster` groups dense thread ids into clusters
// (1 = every thread its own cluster, which degrades CNA to plain MCS and
// HMCS-T to a two-level MCS).  The hcheck model checker runs the same cores
// under hcheck::Platform (tests/hcheck/numa_locks_hcheck_test.cc).
//
//   CnaLock      compact NUMA-aware lock (Dice & Kogan): MCS acquire,
//                cluster-preferring release with a starvation-bounded
//                secondary queue of remote waiters.
//   HmcsTLock    hierarchical MCS with timeout (Chabbi, Fagan &
//                Mellor-Crummey): one MCS level per cluster plus a global
//                level; intra-cluster handoffs pass both.  try_lock_for(n)
//                gives up after n spin iterations.
//   FissileLock  TAS fast path over an MCS slow path; unfair but with the
//                cheapest uncontended acquire/release pair of the family.
//   DrwLock      distributed reader-writer lock: per-cluster padded reader
//                counters (a reader entry/exit touches only its own
//                cluster's line), writer flag + cluster sweep.
//                std::shared_mutex-shaped API; a writer raises the flag at
//                once, so it waits only for readers already in.  set_site
//                profiles the writer side; core().set_sites attaches both.

#ifndef HLOCK_NUMA_LOCKS_H_
#define HLOCK_NUMA_LOCKS_H_

#include "src/hlock/algo/cna.h"
#include "src/hlock/algo/drwlock.h"
#include "src/hlock/algo/fissile.h"
#include "src/hlock/algo/hmcs.h"
#include "src/hlock/native_lock.h"

namespace hlock {

using CnaLock = NativeLock<algo::CnaCore>;
using HmcsTLock = NativeLock<algo::HmcsTCore>;
using FissileLock = NativeLock<algo::FissileCore>;
using DrwLock = NativeLock<algo::DrwLockCore>;

}  // namespace hlock

#endif  // HLOCK_NUMA_LOCKS_H_
