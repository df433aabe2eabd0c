#include "src/hkernel/desc_arena.h"

#include "src/hsim/locks/reserve_bit.h"

namespace hkernel {

// AllocWords zeroes every word, which is each field's initial value.
static_assert(hsim::SimReserve::kFree == 0 && kNilDesc == 0);

namespace {

halloc::SlabConfig MakeConfig(std::uint32_t objects_per_cluster,
                              std::uint32_t magazine_size) {
  halloc::SlabConfig cfg;
  cfg.objects_per_cluster = objects_per_cluster;
  cfg.magazine_size = magazine_size;
  cfg.depot_home = 0;  // depot stack tops and cursors live on module 0
  return cfg;
}

}  // namespace

DescriptorArena::DescriptorArena(hsim::Machine* machine, std::uint32_t cluster_size,
                                 std::uint32_t objects_per_cluster,
                                 std::uint32_t magazine_size,
                                 std::vector<std::vector<hsim::ModuleId>> cluster_modules)
    : backend_(machine, cluster_size),
      core_(&backend_, MakeConfig(objects_per_cluster, magazine_size)) {
  Backend::Check(cluster_modules.size() >= backend_.NumClusters(),
                 "DescriptorArena: cluster_modules must cover every cluster");
  // Ref c * objects_per_cluster + j + 1 is cluster c's j-th descriptor: home
  // it at its ref's cluster, round-robin over the cluster's modules, so the
  // object a cluster-local Alloc hands back is itself cluster-local (a
  // depot-steal deliberately keeps the donor's homing -- the ref records the
  // truth).
  descriptors_.reserve(core_.capacity());
  for (std::uint32_t c = 0; c < backend_.NumClusters(); ++c) {
    const std::vector<hsim::ModuleId>& modules = cluster_modules[c];
    std::size_t m = 0;
    for (std::uint32_t j = 0; j < objects_per_cluster; ++j) {
      descriptors_.emplace_back(machine->AllocWords(modules[m], PageDescriptor::kWords));
      if (++m == modules.size()) {
        m = 0;
      }
    }
  }
}

hsim::Task<DescRef> DescriptorArena::Alloc(hsim::Processor& p) {
  const std::uint64_t ref = co_await core_.Alloc(p);
  co_return static_cast<DescRef>(ref);
}

hsim::Task<void> DescriptorArena::Free(hsim::Processor& p, DescRef ref) {
  co_await core_.Free(p, ref);
}

}  // namespace hkernel
