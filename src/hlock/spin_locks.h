// Native spin locks: test-and-set, test-and-test-and-set and exponential
// backoff.
//
// These are the baselines the paper's Distributed Locks are measured against
// (Figure 3c).  All locks satisfy the BasicLockable requirements, so they
// compose with std::lock_guard / std::scoped_lock.
//
// TasSpinLock and TtasSpinLock live in bootstrap_locks.h (they sit beneath
// the platform policy and the algorithm layer) and are re-exported here.

#ifndef HLOCK_SPIN_LOCKS_H_
#define HLOCK_SPIN_LOCKS_H_

#include <cstdint>

#include "src/hlock/algo/spin.h"
#include "src/hlock/bootstrap_locks.h"
#include "src/hlock/native_lock.h"

namespace hlock {

// Test-and-set with exponential backoff (Figure 3c).  The backoff cap is the
// tuning knob the paper evaluates at 35 us and 2 ms equivalents: a small cap
// keeps uncontended latency low but floods the interconnect under load; a
// large cap is gentle on the memory system but invites starvation.
//
// The algorithm body is algo::SpinCore, shared with the simulator (the
// release is an exchange there too -- HECTOR fidelity the simulator requires
// and the native lock tolerates).  The core's cap is in backend units, which
// are ticks in the simulator; this binds the native default of 1024 pause
// spins.
class BackoffSpinLock : public NativeLock<algo::SpinCore> {
 public:
  explicit BackoffSpinLock(std::uint32_t max_backoff_spins = 1024)
      : NativeLock(/*procs_per_cluster=*/1, max_backoff_spins) {}
};

}  // namespace hlock

#endif  // HLOCK_SPIN_LOCKS_H_
