// Regenerates Figure 4: instruction counts required to execute a lock/unlock
// pair for each locking algorithm in the absence of contention.
//
// The counts are produced by instrumentation: the simulated lock algorithms
// charge every instruction they execute to per-processor counters, and this
// harness differences the counters around one uncontended acquire/release
// pair.  Expected (paper) values:
//
//            Atomic  Mem  Reg  Br
//   MCS        2      2    3    5
//   H1-MCS     2      1    3    5
//   H2-MCS     2      0    3    4
//   Spin       2      0    1    3

#include <cstdio>
#include <cstdint>
#include <memory>

#include "src/halloc/shared_pool.h"
#include "src/halloc/slab_core.h"
#include "src/hmetrics/bench_main.h"
#include "src/hsim/engine.h"
#include "src/hsim/locks/sim_backend.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/machine.h"
#include "src/hsim/opstats.h"

namespace {

using hsim::LockKind;

hsim::Task<void> OnePair(hsim::Processor* p, hsim::SimLock* lock) {
  co_await lock->Acquire(*p);
  co_await lock->Release(*p);
}

hsim::OpStats CountPair(LockKind kind) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  auto lock = MakeSimLock(&machine, kind, 0);
  hsim::Processor& p = machine.processor(0);
  engine.Spawn(OnePair(&p, lock.get()));  // warm-up pair
  engine.RunUntilIdle();
  const hsim::OpStats before = p.stats();
  engine.Spawn(OnePair(&p, lock.get()));
  engine.RunUntilIdle();
  return p.stats() - before;
}

hsim::Task<void> OneSharedPair(hsim::Processor* p, hsim::SimDrwLock* lock) {
  co_await lock->core().AcquireShared(*p);
  co_await lock->core().ReleaseShared(*p);
}

// Uncontended reader or writer pair on the distributed RW lock (4-station
// default machine, so the writer sweep reads 4 cluster counters).
hsim::OpStats CountDrwPair(bool shared) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  hsim::SimDrwLock lock(&machine, /*home=*/0);
  hsim::Processor& p = machine.processor(0);
  if (shared) {
    engine.Spawn(OneSharedPair(&p, &lock));  // warm-up pair
  } else {
    engine.Spawn(OnePair(&p, &lock));
  }
  engine.RunUntilIdle();
  const hsim::OpStats before = p.stats();
  if (shared) {
    engine.Spawn(OneSharedPair(&p, &lock));
  } else {
    engine.Spawn(OnePair(&p, &lock));
  }
  engine.RunUntilIdle();
  return p.stats() - before;
}

template <class Core>
hsim::Task<void> OneAlloc(hsim::Processor* p, Core* core, std::uint64_t* out) {
  *out = co_await core->Alloc(*p);
}

template <class Core>
hsim::Task<void> OneFree(hsim::Processor* p, Core* core, std::uint64_t ref) {
  co_await core->Free(*p, ref);
}

struct AllocPairCounts {
  hsim::OpStats alloc;
  hsim::OpStats free;
};

// Differenced around one warm uncontended alloc and one free on processor 0,
// the same protocol as CountPair: a warm-up pair first so both measured ops
// take the steady-state path (slab: magazine pop/push under the cache lock;
// shared pool: stack pop/push under the pool lock).
template <class Core, class Make>
AllocPairCounts CountAllocPair(Make make) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  hsim::SimBackend backend(&machine);
  std::unique_ptr<Core> core = make(&backend);
  hsim::Processor& p = machine.processor(0);
  std::uint64_t ref = 0;
  engine.Spawn(OneAlloc(&p, core.get(), &ref));  // warm-up pair
  engine.RunUntilIdle();
  engine.Spawn(OneFree(&p, core.get(), ref));
  engine.RunUntilIdle();
  AllocPairCounts counts;
  hsim::OpStats before = p.stats();
  engine.Spawn(OneAlloc(&p, core.get(), &ref));
  engine.RunUntilIdle();
  counts.alloc = p.stats() - before;
  before = p.stats();
  engine.Spawn(OneFree(&p, core.get(), ref));
  engine.RunUntilIdle();
  counts.free = p.stats() - before;
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("fig4_instruction_counts");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  printf("Figure 4: instruction counts for an uncontended lock/unlock pair\n");
  printf("(regenerated from simulator instrumentation; paper values in parentheses)\n\n");
  printf("%-8s %14s %14s %14s %14s\n", "", "Atomic", "Mem", "Reg", "Br");
  struct Row {
    const char* name;
    LockKind kind;
    int paper[4];
  };
  const Row rows[] = {
      {"MCS", LockKind::kMcs, {2, 2, 3, 5}},
      {"H1-MCS", LockKind::kMcsH1, {2, 1, 3, 5}},
      {"H2-MCS", LockKind::kMcsH2, {2, 0, 3, 4}},
      {"Spin", LockKind::kSpin35us, {2, 0, 1, 3}},
  };
  bool all_match = true;
  for (const Row& row : rows) {
    const hsim::OpStats d = CountPair(row.kind);
    const std::uint64_t measured[4] = {d.atomic_ops, d.mem_accesses(), d.reg_instrs, d.branches};
    printf("%-8s", row.name);
    bool row_match = true;
    for (int i = 0; i < 4; ++i) {
      printf("      %4llu (%d)", static_cast<unsigned long long>(measured[i]), row.paper[i]);
      row_match &= measured[i] == static_cast<std::uint64_t>(row.paper[i]);
    }
    all_match &= row_match;
    printf("\n");
    report.AddSeries("instruction_counts", {{"lock", row.name}})
        .AddPoint({{"atomic", static_cast<double>(measured[0])},
                   {"mem", static_cast<double>(measured[1])},
                   {"reg", static_cast<double>(measured[2])},
                   {"br", static_cast<double>(measured[3])},
                   {"matches_paper", row_match ? 1.0 : 0.0}});
  }
  // Beyond the paper: the distributed RW lock's uncontended pairs, pinned
  // against counts derived from the code path (no paper column exists).
  // Reader pair: CAS-bump own counter (1 load + 1 atomic, 1 reg, 1 br), flag
  // load (+1 branch), CAS-drop (1 load + 1 atomic, 1 reg, 1 br).  Writer
  // pair: wmutex CAS, flag store, 4 sweep loads (+1 branch each), then two
  // release stores (+1 branch).
  printf("\ndistributed RW lock (derived expected values in parentheses)\n");
  struct DrwRow {
    const char* name;
    bool shared;
    int expected[4];
  };
  const DrwRow drw_rows[] = {
      {"DRW-read", true, {2, 3, 2, 3}},
      {"DRW-write", false, {1, 7, 1, 6}},
  };
  for (const DrwRow& row : drw_rows) {
    const hsim::OpStats d = CountDrwPair(row.shared);
    const std::uint64_t measured[4] = {d.atomic_ops, d.mem_accesses(), d.reg_instrs, d.branches};
    printf("%-9s", row.name);
    bool row_match = true;
    for (int i = 0; i < 4; ++i) {
      printf("      %4llu (%d)", static_cast<unsigned long long>(measured[i]), row.expected[i]);
      row_match &= measured[i] == static_cast<std::uint64_t>(row.expected[i]);
    }
    all_match &= row_match;
    printf("\n");
    report.AddSeries("instruction_counts", {{"lock", row.name}})
        .AddPoint({{"atomic", static_cast<double>(measured[0])},
                   {"mem", static_cast<double>(measured[1])},
                   {"reg", static_cast<double>(measured[2])},
                   {"br", static_cast<double>(measured[3])},
                   {"matches_paper", row_match ? 1.0 : 0.0}});
  }

  // Beyond the paper: the halloc fast paths, one row per operation (not per
  // pair -- alloc and free cost differently).  Derived expected values:
  //   Slab alloc: cache-lock CAS (+1 reg, +1 br), load loaded, load count
  //   (+1 br for the count test), PopRound's round load + count store
  //   (+1 reg), release store (+1 br)            -> 1 atomic, 5 mem, 2 reg, 3 br.
  //   Slab free: same shell; PushRound stores the round instead of loading
  //   it (2 loads + 3 stores)                    -> 1 atomic, 5 mem, 2 reg, 3 br.
  //   Pool alloc: pool-lock CAS (+1 reg, +1 br), head load (+1 br), next
  //   load, head store, release store (+1 br)    -> 1 atomic, 4 mem, 1 reg, 3 br.
  //   Pool free: head load, next store, head store, no nil test
  //                                              -> 1 atomic, 4 mem, 1 reg, 2 br.
  // The slab pays one extra mem access and a reg op over the shared pool --
  // the price of the magazine indirection -- but every one of its references
  // stays on the allocating cluster's station (bench/alloc_scaling).
  printf("\nhalloc allocators, per operation (derived expected values in "
         "parentheses)\n");
  const AllocPairCounts slab = CountAllocPair<halloc::SlabAllocatorCore<hsim::SimBackend>>(
      [](hsim::SimBackend* b) {
        return std::make_unique<halloc::SlabAllocatorCore<hsim::SimBackend>>(
            b, halloc::SlabConfig{});
      });
  const AllocPairCounts pool = CountAllocPair<halloc::SharedPoolCore<hsim::SimBackend>>(
      [](hsim::SimBackend* b) {
        return std::make_unique<halloc::SharedPoolCore<hsim::SimBackend>>(
            b, /*capacity=*/64, /*home=*/0);
      });
  struct AllocRow {
    const char* name;
    const hsim::OpStats* d;
    int expected[4];
  };
  const AllocRow alloc_rows[] = {
      {"Slab-alloc", &slab.alloc, {1, 5, 2, 3}},
      {"Slab-free", &slab.free, {1, 5, 2, 3}},
      {"Pool-alloc", &pool.alloc, {1, 4, 1, 3}},
      {"Pool-free", &pool.free, {1, 4, 1, 2}},
  };
  for (const AllocRow& row : alloc_rows) {
    const hsim::OpStats& d = *row.d;
    const std::uint64_t measured[4] = {d.atomic_ops, d.mem_accesses(), d.reg_instrs, d.branches};
    printf("%-10s", row.name);
    bool row_match = true;
    for (int i = 0; i < 4; ++i) {
      printf("      %4llu (%d)", static_cast<unsigned long long>(measured[i]), row.expected[i]);
      row_match &= measured[i] == static_cast<std::uint64_t>(row.expected[i]);
    }
    all_match &= row_match;
    printf("\n");
    report.AddSeries("instruction_counts", {{"lock", row.name}})
        .AddPoint({{"atomic", static_cast<double>(measured[0])},
                   {"mem", static_cast<double>(measured[1])},
                   {"reg", static_cast<double>(measured[2])},
                   {"br", static_cast<double>(measured[3])},
                   {"matches_paper", row_match ? 1.0 : 0.0}});
  }

  printf("\n%s\n", all_match ? "All rows match the paper exactly."
                             : "MISMATCH against the paper's table!");
  if (!hmetrics::WriteReport(opts, report)) {
    return 1;
  }
  return all_match ? 0 : 1;
}
