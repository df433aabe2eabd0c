// Per-processor operation counters.
//
// These mirror the categories of Figure 4 in the paper: atomic read-modify-
// write instructions, plain memory loads/stores, single-cycle register-to-
// register instructions, and branches.  The simulated lock algorithms charge
// every instruction they execute to these counters, so the Figure 4 table can
// be regenerated exactly by differencing counters around a lock/unlock pair.

#ifndef HSIM_OPSTATS_H_
#define HSIM_OPSTATS_H_

#include <cstdint>

namespace hsim {

struct OpStats {
  std::uint64_t atomic_ops = 0;   // atomic swap / compare-and-swap
  std::uint64_t mem_loads = 0;    // plain loads
  std::uint64_t mem_stores = 0;   // plain stores
  std::uint64_t reg_instrs = 0;   // register-to-register instructions
  std::uint64_t branches = 0;     // branches, including returns
  std::uint64_t idle_cycles = 0;  // backoff delay cycles (no memory traffic)

  // NUMA locality of completed memory references (loads, stores, atomics),
  // classified by the route the access took: the processor's own module, a
  // sibling module on the same station, or across the ring.  These are the
  // per-processor version of the paper's traffic argument -- an allocator or
  // lock is NUMA-friendly exactly when its loc_ring share is small -- and
  // what bench/alloc_scaling gates.  Pure observers: incrementing them never
  // changes timing, so every pre-existing series is bit-identical.
  std::uint64_t loc_local = 0;    // served by the local module (or cache hit)
  std::uint64_t loc_station = 0;  // same-station remote module
  std::uint64_t loc_ring = 0;     // crossed the inter-station ring

  std::uint64_t mem_accesses() const { return mem_loads + mem_stores; }
  std::uint64_t loc_total() const { return loc_local + loc_station + loc_ring; }

  OpStats operator-(const OpStats& other) const {
    OpStats d;
    d.atomic_ops = atomic_ops - other.atomic_ops;
    d.mem_loads = mem_loads - other.mem_loads;
    d.mem_stores = mem_stores - other.mem_stores;
    d.reg_instrs = reg_instrs - other.reg_instrs;
    d.branches = branches - other.branches;
    d.idle_cycles = idle_cycles - other.idle_cycles;
    d.loc_local = loc_local - other.loc_local;
    d.loc_station = loc_station - other.loc_station;
    d.loc_ring = loc_ring - other.loc_ring;
    return d;
  }

  OpStats& operator+=(const OpStats& other) {
    atomic_ops += other.atomic_ops;
    mem_loads += other.mem_loads;
    mem_stores += other.mem_stores;
    reg_instrs += other.reg_instrs;
    branches += other.branches;
    idle_cycles += other.idle_cycles;
    loc_local += other.loc_local;
    loc_station += other.loc_station;
    loc_ring += other.loc_ring;
    return *this;
  }
};

}  // namespace hsim

#endif  // HSIM_OPSTATS_H_
