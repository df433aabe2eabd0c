#include "src/hkernel/page_table.h"

namespace hkernel {

PageHashTable::PageHashTable(hsim::Machine* machine, std::vector<hsim::ModuleId> modules,
                             std::uint32_t num_bins, std::uint32_t capacity)
    : PageHashTable(machine, modules, num_bins, nullptr) {
  // Private arena spanning the whole machine as one allocation cluster, its
  // descriptors spread over this table's modules -- the old per-table pool,
  // now costed through the slab layer.
  owned_arena_ = std::make_unique<DescriptorArena>(
      machine, machine->config().num_processors(), capacity,
      KernelConfig{}.desc_magazine_size,
      std::vector<std::vector<hsim::ModuleId>>{modules});
  arena_ = owned_arena_.get();
}

PageHashTable::PageHashTable(hsim::Machine* machine, std::vector<hsim::ModuleId> modules,
                             std::uint32_t num_bins, DescriptorArena* arena)
    : arena_(arena) {
  bins_.reserve(num_bins);
  for (std::uint32_t b = 0; b < num_bins; ++b) {
    bins_.push_back(&machine->AllocWord(modules[b % modules.size()], kNilDesc));
  }
}

hsim::Task<DescRef> PageHashTable::Lookup(hsim::Processor& p, std::uint64_t page) {
  const std::uint32_t bin = BinOf(page);
  co_await p.Exec(2, 0);  // hash computation
  DescRef ref = static_cast<DescRef>(co_await p.Load(*bins_[bin]));
  while (ref != kNilDesc) {
    co_await p.Exec(0, 1);
    const std::uint64_t key = co_await p.Load(desc(ref).page());
    co_await p.Exec(0, 1);
    if (key == page) {
      co_return ref;
    }
    ref = static_cast<DescRef>(co_await p.Load(desc(ref).next()));
  }
  co_await p.Exec(0, 1);
  co_return kNilDesc;
}

hsim::Task<DescRef> PageHashTable::Insert(hsim::Processor& p, std::uint64_t page) {
  const DescRef ref = co_await arena_->Alloc(p);
  if (ref == kNilDesc) {
    co_return kNilDesc;
  }
  ++live_;
  const PageDescriptor d = desc(ref);
  co_await p.Store(d.page(), page);
  co_await p.Store(d.flags(), 0);
  const std::uint32_t bin = BinOf(page);
  const std::uint64_t head = co_await p.Load(*bins_[bin]);
  co_await p.Store(d.next(), head);
  co_await p.Store(*bins_[bin], ref);
  co_return ref;
}

hsim::Task<bool> PageHashTable::Remove(hsim::Processor& p, std::uint64_t page) {
  const std::uint32_t bin = BinOf(page);
  co_await p.Exec(2, 0);
  hsim::SimWord* link = bins_[bin];
  DescRef ref = static_cast<DescRef>(co_await p.Load(*link));
  while (ref != kNilDesc) {
    co_await p.Exec(0, 1);
    const std::uint64_t key = co_await p.Load(desc(ref).page());
    co_await p.Exec(0, 1);
    if (key == page) {
      const std::uint64_t next = co_await p.Load(desc(ref).next());
      co_await p.Store(*link, next);
      // Scrub identity but keep the reserve word type-stable: a late spinner
      // observes kFree (or the next owner's state), never garbage.
      co_await p.Store(desc(ref).page(), 0);
      co_await arena_->Free(p, ref);
      --live_;
      co_return true;
    }
    link = &desc(ref).next();
    ref = static_cast<DescRef>(co_await p.Load(*link));
  }
  co_return false;
}

}  // namespace hkernel
