// Native typed wrapper over SlabAllocatorCore: a fixed arena of T plus the
// slab/magazine/depot machinery on real std::atomic.
//
// Native thread placement is whatever the OS did, so the cluster topology is
// declared, not discovered: AllocBackend shadows NativeBackend's id-division
// cluster map with an explicit registration table, and callers tell the
// allocator which cluster each participating thread (or explicit ctx id)
// belongs to before allocating.  hload registers one generator thread per
// cluster; the sim's RPC transport registers one ctx per kernel cluster and
// passes ctx ids explicitly (the engine host is single-threaded).
//
// The arena is sized at construction and never reallocates, so T may be
// non-movable (request nodes hold std::atomic members) and pointers handed
// out stay stable for the allocator's lifetime.

#ifndef HALLOC_SLAB_ALLOCATOR_H_
#define HALLOC_SLAB_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hlock/algo/native_backend.h"
#include "src/hlock/platform.h"
#include "src/halloc/slab_core.h"

namespace halloc {

// NativeBackend with the cluster map replaced by an explicit table.  The
// core calls ClusterOfCtx/NumClusters/NumCtxs non-virtually through its B
// template parameter, so shadowing is enough.
template <class Platform = hlock::StdPlatform>
class AllocBackend : public hlock::algo::NativeBackend<Platform> {
 public:
  explicit AllocBackend(std::uint32_t num_clusters)
      : num_clusters_(num_clusters == 0 ? 1 : num_clusters),
        cluster_of_(Platform::kMaxThreads, 0) {}

  void RegisterCtx(std::uint32_t ctx_id, std::uint32_t cluster) {
    Platform::Check(ctx_id < cluster_of_.size(), "halloc: ctx id out of range");
    Platform::Check(cluster < num_clusters_, "halloc: cluster out of range");
    cluster_of_[ctx_id] = cluster;
  }

  std::uint32_t ClusterOfCtx(std::uint32_t id) const { return cluster_of_[id]; }
  std::uint32_t NumClusters() const { return num_clusters_; }

 private:
  std::uint32_t num_clusters_;
  std::vector<std::uint32_t> cluster_of_;
};

template <typename T, class Platform = hlock::StdPlatform>
class SlabAllocator {
 public:
  using Backend = AllocBackend<Platform>;
  using Core = SlabAllocatorCore<Backend>;

  SlabAllocator(std::uint32_t num_clusters, const SlabConfig& cfg)
      : backend_(num_clusters),
        core_(&backend_, cfg),
        arena_(core_.capacity()) {}

  // Maps the calling thread onto a cluster; call once per participating
  // thread before Alloc/Free.  Unregistered threads land in cluster 0.
  void RegisterThread(std::uint32_t cluster) {
    backend_.RegisterCtx(Platform::ThreadId(), cluster);
  }
  // Explicit-ctx registration for single-threaded embedders (the sim
  // transport) that key allocations by logical cluster rather than thread.
  void RegisterCtx(std::uint32_t ctx_id, std::uint32_t cluster) {
    backend_.RegisterCtx(ctx_id, cluster);
  }

  // nullptr on pool exhaustion.
  T* Alloc() { return AllocFor(Platform::ThreadId()); }
  void Free(T* obj) { FreeFor(Platform::ThreadId(), obj); }

  T* AllocFor(std::uint32_t ctx_id) {
    typename Backend::Ctx ctx{ctx_id};
    const std::uint64_t ref = core_.Alloc(ctx);
    return ref == Core::kNil ? nullptr : &arena_[ref - 1];
  }
  void FreeFor(std::uint32_t ctx_id, T* obj) {
    typename Backend::Ctx ctx{ctx_id};
    core_.Free(ctx, static_cast<std::uint64_t>(obj - arena_.data()) + 1);
  }

  std::uint64_t capacity() const { return core_.capacity(); }
  std::uint32_t num_clusters() const { return core_.num_clusters(); }
  const Core& core() const { return core_; }
  Core& core() { return core_; }
  void set_depot_site(hprof::LockSiteStats* site) { core_.set_depot_site(site); }

  // Arena access for embedders that index objects directly.
  T& object(std::uint64_t ref) { return arena_[ref - 1]; }

 private:
  Backend backend_;
  Core core_;
  std::vector<T> arena_;
};

}  // namespace halloc

#endif  // HALLOC_SLAB_ALLOCATOR_H_
