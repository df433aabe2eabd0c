// Machine-wide page-descriptor arena on the halloc slab allocator.
//
// Before this arena each PageHashTable kept a private host-side free list
// (free_list_ vector + a flat Exec charge), so descriptor allocation was
// uncosted, invisible to the profiler, and each cluster's pool was a hard
// silo: one cluster could exhaust its 2048 descriptors while a neighbour sat
// idle.  The arena replaces all of that with SlabAllocatorCore over the
// simulated machine:
//
//   - refs are partitioned per kernel cluster and each descriptor's SimWords
//     are homed at its ref's home cluster (first module of the cluster, where
//     the old per-table pools lived), so the hot alloc/free path touches only
//     cluster-local magazine words;
//   - allocation cost is real simulated memory traffic under the cluster's
//     cache lock, not a flat Exec charge;
//   - the shared depot absorbs drift between clusters (replica churn frees on
//     the faulting cluster what the home cluster allocated) and lets a busy
//     cluster steal never-used slabs from an idle one's range;
//   - the depot lock is an hprof site ("kernel/desc-depot" via
//     KernelSystem::AttachLockProfiler), so allocator contention shows up in
//     lockprof reports with per-cluster handoff attribution.
//
// The allocation clustering follows the KERNEL's clustering (config.
// cluster_size), not the machine's stations: the arena's backend shadows
// SimBackend's station-based topology the same way fig7's cluster sweep
// regroups processors.
//
// Layout.  Each descriptor is one run of PageDescriptor::kWords contiguous
// SimWords from Machine::AllocWords, all homed on one module.  Every field
// starts at 0 (kNilDesc and SimReserve::kFree are both 0), so a fresh zeroed
// run is a ready descriptor.  A PageDescriptor is a one-pointer view of its
// run, and the arena keeps one view per ref.

#ifndef HKERNEL_DESC_ARENA_H_
#define HKERNEL_DESC_ARENA_H_

#include <cstdint>
#include <vector>

#include "src/halloc/slab_core.h"
#include "src/hkernel/config.h"
#include "src/hsim/locks/sim_backend.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"

namespace hkernel {

// Index of a descriptor within the arena, offset by one; 0 means nil.
using DescRef = std::uint32_t;
inline constexpr DescRef kNilDesc = 0;

// A view of one descriptor's words.  Copying it copies the pointer only.
class PageDescriptor {
 public:
  static constexpr std::uint32_t kWords = 6 + KernelConfig::kPayloadWords;

  explicit PageDescriptor(hsim::SimWord* words) : words_(words) {}

  hsim::SimWord& page() const { return words_[0]; }       // page identifier
  hsim::SimWord& next() const { return words_[1]; }       // hash chain link (DescRef)
  hsim::SimWord& reserve() const { return words_[2]; }    // see hsim::SimReserve
  hsim::SimWord& flags() const { return words_[3]; }      // kFlagPresent | kFlagHome
  hsim::SimWord& ref_count() const { return words_[4]; }  // per-cluster mapping count
  hsim::SimWord& replicas() const { return words_[5]; }   // home only: replica clusters
  // Word `i` of the data copied on replication, i < KernelConfig::kPayloadWords.
  hsim::SimWord& payload(std::uint32_t i) const { return words_[6 + i]; }

 private:
  hsim::SimWord* words_;
};

class DescriptorArena {
 public:
  // SimBackend with the kernel's clustering (id / cluster_size) instead of
  // the machine's stations.  SlabAllocatorCore reaches topology through its
  // template parameter, so shadowing the three lookups is sufficient.
  class Backend : public hsim::SimBackend {
   public:
    Backend(hsim::Machine* machine, std::uint32_t cluster_size)
        : hsim::SimBackend(machine),
          cluster_size_(cluster_size == 0 ? 1 : cluster_size) {}
    std::uint32_t ClusterOfCtx(std::uint32_t id) const { return id / cluster_size_; }
    std::uint32_t NumClusters() const {
      return (machine()->config().num_processors() + cluster_size_ - 1) /
             cluster_size_;
    }

   private:
    std::uint32_t cluster_size_;
  };

  // `cluster_modules[c]` are the memory modules cluster c's descriptors are
  // spread over (round-robin), one entry per allocation cluster.
  // `objects_per_cluster` is the old per-table pool capacity.
  DescriptorArena(hsim::Machine* machine, std::uint32_t cluster_size,
                  std::uint32_t objects_per_cluster, std::uint32_t magazine_size,
                  std::vector<std::vector<hsim::ModuleId>> cluster_modules);
  DescriptorArena(const DescriptorArena&) = delete;
  DescriptorArena& operator=(const DescriptorArena&) = delete;

  // Allocates a descriptor near `p`'s cluster (kNilDesc when the whole
  // machine is out).  Costed: runs the magazine fast path or a depot trip in
  // simulated memory.  Caller must hold whatever serializes its table -- the
  // arena itself is safe under concurrent callers from different clusters.
  hsim::Task<DescRef> Alloc(hsim::Processor& p);
  hsim::Task<void> Free(hsim::Processor& p, DescRef ref);

  PageDescriptor desc(DescRef ref) const { return descriptors_[ref - 1]; }

  std::uint32_t objects_per_cluster() const {
    return static_cast<std::uint32_t>(core_.objects_per_cluster());
  }
  std::uint64_t capacity() const { return core_.capacity(); }

  halloc::SlabAllocatorCore<Backend>& core() { return core_; }
  const halloc::SlabAllocatorCore<Backend>& core() const { return core_; }
  void set_depot_site(hprof::LockSiteStats* site) { core_.set_depot_site(site); }

 private:
  Backend backend_;
  halloc::SlabAllocatorCore<Backend> core_;
  std::vector<PageDescriptor> descriptors_;
};

}  // namespace hkernel

#endif  // HKERNEL_DESC_ARENA_H_
