// Per-cluster page descriptors and the chained hash table that holds them
// (Figure 1 / Figure 2 of the paper).
//
// Every cluster instantiates its own table, protected by one coarse-grained
// lock (owned by ClusterKernel, not by the table).  Descriptors come from the
// machine-wide DescriptorArena (src/hkernel/desc_arena.h): a halloc slab
// allocator whose refs are partitioned per cluster, so allocation is
// cluster-local on the fast path yet one cluster can borrow from the shared
// depot when its own range runs dry.  The arena is type-stable: memory used
// for a page descriptor is only ever reused for another page descriptor,
// which is what makes spinning on a freed descriptor's reserve word safe
// (paper footnote 2).
//
// All table operations must be called with the cluster's coarse lock held.
// They walk real simulated memory, so the time the coarse lock is held -- and
// the memory traffic the walk generates -- is an emergent property.

#ifndef HKERNEL_PAGE_TABLE_H_
#define HKERNEL_PAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hkernel/config.h"
#include "src/hkernel/desc_arena.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"

namespace hkernel {

inline constexpr std::uint64_t kFlagPresent = 1;  // payload is valid
inline constexpr std::uint64_t kFlagHome = 2;     // this cluster is the page's home

class PageHashTable {
 public:
  // Standalone table with a private single-cluster arena: `modules` are the
  // memory modules of the owning cluster; bins and descriptors are spread
  // round-robin across them.  Used by tests and single-cluster setups.
  PageHashTable(hsim::Machine* machine, std::vector<hsim::ModuleId> modules,
                std::uint32_t num_bins, std::uint32_t capacity);

  // Table over a shared machine-wide arena (KernelSystem builds one arena and
  // every cluster's table draws from it).  The table owns only its bins.
  PageHashTable(hsim::Machine* machine, std::vector<hsim::ModuleId> modules,
                std::uint32_t num_bins, DescriptorArena* arena);

  PageHashTable(const PageHashTable&) = delete;
  PageHashTable& operator=(const PageHashTable&) = delete;

  // Searches the hash chain for `page`.  Returns kNilDesc if absent.
  hsim::Task<DescRef> Lookup(hsim::Processor& p, std::uint64_t page);

  // Allocates a descriptor for `page` from the arena (near `p`'s cluster) and
  // links it at the head of its chain.  `page` must not already be present.
  // Returns kNilDesc if the arena is exhausted.
  hsim::Task<DescRef> Insert(hsim::Processor& p, std::uint64_t page);

  // Unlinks and frees the descriptor for `page`.  Returns false if absent.
  hsim::Task<bool> Remove(hsim::Processor& p, std::uint64_t page);

  PageDescriptor desc(DescRef ref) const { return arena_->desc(ref); }

  // Descriptors available to this table's cluster before it has to lean on
  // the depot (the old per-table pool size).
  std::uint32_t capacity() const { return arena_->objects_per_cluster(); }
  std::uint32_t live() const { return live_; }

  DescriptorArena& arena() { return *arena_; }

 private:
  std::uint32_t BinOf(std::uint64_t page) const {
    // Multiplicative hash; bins are a power of two in practice but this does
    // not rely on it.
    return static_cast<std::uint32_t>((page * 0x9E3779B97F4A7C15ULL) >> 32) %
           static_cast<std::uint32_t>(bins_.size());
  }

  std::vector<hsim::SimWord*> bins_;  // each holds a DescRef
  std::unique_ptr<DescriptorArena> owned_arena_;  // standalone ctor only
  DescriptorArena* arena_;
  std::uint32_t live_ = 0;
};

}  // namespace hkernel

#endif  // HKERNEL_PAGE_TABLE_H_
