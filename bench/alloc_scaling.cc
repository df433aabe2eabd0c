// alloc_scaling: cross-cluster traffic of the halloc slab allocator against
// the shared-free-list baseline it replaces, on the simulated HECTOR machine
// (4 stations x 4 processor-memory modules).
//
// The paper's argument for per-cluster kernel data applies verbatim to the
// allocation path: a single free list homed in one memory module forces 12 of
// 16 processors across the ring on EVERY alloc and free, while the slab
// core's per-cluster magazines keep the fast path inside the allocating
// processor's own station.  Two workloads measure that with the simulator's
// per-processor loc_* counters:
//
//   steady state -- every processor cycles one object (batch=1).  After the
//     magazine primes, the slab never leaves its station: ring crossings per
//     op must be exactly zero, against a shared-pool figure that grows as
//     stations join (processors fill stations in order, so p=4 is one
//     station, p=16 all four).
//   depot churn -- batches larger than two magazines force a depot trip per
//     batch.  Only the depot metadata crosses the ring (the carved refs stay
//     home), so the slab's ring crossings per op stay well below the shared
//     pool's; the claim gated in BENCH_BASELINE.json is a >= 4x reduction.
//
// The churn phase also attaches hprof sites to the slab depot lock and the
// shared pool lock: the depot shows up like any other lock site, with
// per-cluster acquisition shares and a handoff mix (all four clusters visit
// the depot, so most owner transitions are cross-cluster -- the point is that
// trips are RARE, not local).  --profile renders the two sites as an hprof
// report; --profile=PATH also writes the hurricane-lockprof/1 document.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/halloc/shared_pool.h"
#include "src/halloc/slab_core.h"
#include "src/hmetrics/bench_main.h"
#include "src/hprof/lock_site.h"
#include "src/hprof/report.h"
#include "src/hsim/engine.h"
#include "src/hsim/locks/sim_backend.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace {

using SharedCore = halloc::SharedPoolCore<hsim::SimBackend>;
using SlabCore = halloc::SlabAllocatorCore<hsim::SimBackend>;

// Geometry shared by both allocators: same capacity, and batches sized so the
// churn phase (kBatch > 2 * magazine_size) takes a depot trip per batch while
// peak live objects (16 procs * kBatch) stay under capacity.
constexpr std::uint64_t kObjectsPerCluster = 128;
constexpr std::uint64_t kMagazineSize = 8;
constexpr unsigned kClusters = 4;
constexpr std::uint64_t kCapacity = kClusters * kObjectsPerCluster;
constexpr int kBatch = static_cast<int>(2 * kMagazineSize + 1);

const unsigned kProcs[] = {4, 8, 16};

// Each iteration allocates `batch` objects and frees them all; kNil grants
// (exhaustion) are simply not freed, and the cores count them as alloc_fail.
template <class Core>
hsim::Task<void> Worker(hsim::Processor* p, Core* core, int iters, int batch) {
  std::vector<std::uint64_t> held;
  held.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < iters; ++i) {
    for (int j = 0; j < batch; ++j) {
      const std::uint64_t ref = co_await core->Alloc(*p);
      if (ref != Core::kNil) {
        held.push_back(ref);
      }
    }
    for (std::uint64_t ref : held) {
      co_await core->Free(*p, ref);
    }
    held.clear();
  }
}

struct RunResult {
  std::uint64_t ops = 0;       // completed allocs + frees (+ refusals)
  hsim::OpStats traffic;       // summed over the participating processors

  double ring_per_op() const {
    return ops > 0 ? static_cast<double>(traffic.loc_ring) /
                         static_cast<double>(ops)
                   : 0.0;
  }
  double frac_ring() const {
    const std::uint64_t total = traffic.loc_total();
    return total > 0 ? static_cast<double>(traffic.loc_ring) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

template <class Core>
hsim::OpStats DriveWorkload(hsim::Engine* engine, hsim::Machine* machine,
                            Core* core, unsigned procs, int iters, int batch) {
  std::vector<hsim::OpStats> before;
  before.reserve(procs);
  for (unsigned i = 0; i < procs; ++i) {
    before.push_back(machine->processor(i).stats());
  }
  for (unsigned i = 0; i < procs; ++i) {
    engine->Spawn(Worker(&machine->processor(i), core, iters, batch));
  }
  engine->RunUntilIdle();
  hsim::OpStats delta;
  for (unsigned i = 0; i < procs; ++i) {
    delta += machine->processor(i).stats() - before[i];
  }
  return delta;
}

RunResult RunShared(unsigned procs, int iters, int batch,
                    hprof::LockSiteStats* site) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  hsim::SimBackend backend(&machine);
  SharedCore pool(&backend, kCapacity, /*home=*/0);
  if (site != nullptr) {
    pool.set_lock_site(site);
  }
  RunResult r;
  r.traffic = DriveWorkload(&engine, &machine, &pool, procs, iters, batch);
  r.ops = pool.allocs() + pool.frees() + pool.fails();
  return r;
}

RunResult RunSlab(unsigned procs, int iters, int batch,
                  hprof::LockSiteStats* site) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  hsim::SimBackend backend(&machine);
  halloc::SlabConfig cfg;
  cfg.objects_per_cluster = kObjectsPerCluster;
  cfg.magazine_size = kMagazineSize;
  SlabCore core(&backend, cfg);
  if (site != nullptr) {
    core.set_depot_site(site);
  }
  RunResult r;
  r.traffic = DriveWorkload(&engine, &machine, &core, procs, iters, batch);
  const halloc::CacheStats total = core.TotalCacheStats();
  r.ops = total.allocs() + total.frees() + total.alloc_fail;
  return r;
}

void AddHandoffPoint(hmetrics::BenchReport* report, const char* alloc_name,
                     const hprof::LockSiteStats& site) {
  const double same_proc =
      static_cast<double>(site.handoffs(hprof::Handoff::kSameProcessor));
  const double same_clust =
      static_cast<double>(site.handoffs(hprof::Handoff::kSameCluster));
  const double cross_clust =
      static_cast<double>(site.handoffs(hprof::Handoff::kCrossCluster));
  const double total = same_proc + same_clust + cross_clust;
  const double denom = total > 0 ? total : 1;
  printf("%-12s %12llu %12.3f %12.3f %12.3f\n", alloc_name,
         static_cast<unsigned long long>(site.acquisitions()),
         same_proc / denom, same_clust / denom, cross_clust / denom);
  report->AddSeries("lock_handoff", {{"alloc", alloc_name}})
      .AddPoint({{"procs", 16},
                 {"clusters", static_cast<double>(kClusters)},
                 {"acquisitions", static_cast<double>(site.acquisitions())},
                 {"frac_same_processor", same_proc / denom},
                 {"frac_same_cluster", same_clust / denom},
                 {"frac_cross_cluster", cross_clust / denom}});
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("alloc_scaling");
  report.SetParam("smoke", opts.smoke ? 1 : 0);

  printf("alloc_scaling: allocator ring traffic, per-cluster slab vs shared "
         "free list\n\n");

  // --- steady state: one object cycled per processor ------------------------
  const int steady_iters = opts.smoke ? 200 : 2000;
  struct Runner {
    const char* name;
    RunResult (*run)(unsigned, int, int, hprof::LockSiteStats*);
  };
  const Runner kRunners[] = {{"shared-pool", RunShared}, {"slab", RunSlab}};

  printf("steady state (batch=1, iters=%d): ring crossings per alloc/free\n",
         steady_iters);
  printf("%-12s", "alloc \\ p");
  for (unsigned p : kProcs) {
    printf("%10u", p);
  }
  printf("%14s\n", "frac_ring@16");
  double steady_rpo[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    hmetrics::BenchSeries& out =
        report.AddSeries("steady_traffic", {{"alloc", kRunners[s].name}});
    printf("%-12s", kRunners[s].name);
    double frac16 = 0;
    for (unsigned p : kProcs) {
      const RunResult r = kRunners[s].run(p, steady_iters, /*batch=*/1, nullptr);
      printf("%10.3f", r.ring_per_op());
      out.AddPoint({{"procs", static_cast<double>(p)},
                    {"iters", static_cast<double>(steady_iters)},
                    {"ops", static_cast<double>(r.ops)},
                    {"ring_per_op", r.ring_per_op()},
                    {"frac_ring", r.frac_ring()}});
      if (p == 16) {
        steady_rpo[s] = r.ring_per_op();
        frac16 = r.frac_ring();
      }
    }
    printf("%14.3f\n", frac16);
  }

  // Headline gate: at 16 processors / 4 clusters the slab eliminates the
  // shared pool's per-op ring traffic outright (the fast path never leaves
  // the station), so the drop fraction sits at 1.0 and is gated with the
  // +/- 0.1 frac tolerance.
  const double steady_drop =
      steady_rpo[0] > 0 ? 1.0 - steady_rpo[1] / steady_rpo[0] : 0.0;
  printf("\nsteady-state ring-traffic drop at p=16: %.1f%% (shared %.3f -> "
         "slab %.3f per op)\n",
         100.0 * steady_drop, steady_rpo[0], steady_rpo[1]);
  report.AddSeries("steady_drop", {})
      .AddPoint({{"procs", 16},
                 {"clusters", static_cast<double>(kClusters)},
                 {"iters", static_cast<double>(steady_iters)},
                 {"shared_ring_per_op", steady_rpo[0]},
                 {"slab_ring_per_op", steady_rpo[1]},
                 {"frac_ring_drop", steady_drop}});

  // --- depot churn: batches too big for the magazine pair -------------------
  // Every batch drains loaded+previous and takes one depot trip; the trip
  // crosses the ring (depot words live at module 0) but amortizes over the
  // whole batch, so per-op ring traffic stays a small multiple of zero while
  // the shared pool still pays per op.  The hprof sites attached here feed
  // the handoff table below and --profile.
  const int churn_rounds = opts.smoke ? 50 : 400;
  hprof::SiteTable sites(static_cast<double>(hsim::kCyclesPerMicrosecond));
  hprof::LockSiteStats& depot_site =
      sites.AddSite("alloc/slab-depot", /*procs_per_cluster=*/4);
  hprof::LockSiteStats& shared_site =
      sites.AddSite("alloc/shared-pool", /*procs_per_cluster=*/4);

  printf("\ndepot churn (batch=%d, rounds=%d, p=16): ring crossings per op\n",
         kBatch, churn_rounds);
  double churn_rpo[2] = {0, 0};
  const hprof::LockSiteStats* churn_sites[2] = {&shared_site, &depot_site};
  for (int s = 0; s < 2; ++s) {
    const RunResult r = kRunners[s].run(
        16, churn_rounds, kBatch,
        const_cast<hprof::LockSiteStats*>(churn_sites[s]));
    churn_rpo[s] = r.ring_per_op();
    printf("  %-12s %8.3f (frac_ring %.3f, ops %llu)\n", kRunners[s].name,
           r.ring_per_op(), r.frac_ring(),
           static_cast<unsigned long long>(r.ops));
    report.AddSeries("churn_traffic", {{"alloc", kRunners[s].name}})
        .AddPoint({{"procs", 16},
                   {"clusters", static_cast<double>(kClusters)},
                   {"iters", static_cast<double>(churn_rounds)},
                   {"ops", static_cast<double>(r.ops)},
                   {"ring_per_op", r.ring_per_op()},
                   {"frac_ring", r.frac_ring()}});
  }
  const double churn_ratio =
      churn_rpo[1] > 0 ? churn_rpo[0] / churn_rpo[1] : 0.0;
  printf("  slab advantage: %.1fx fewer ring crossings per op "
         "(target >= 4x)\n", churn_ratio);
  report.AddSeries("churn_advantage", {})
      .AddPoint({{"procs", 16},
                 {"clusters", static_cast<double>(kClusters)},
                 {"iters", static_cast<double>(churn_rounds)},
                 {"ring_ratio", churn_ratio},
                 {"frac_target_met",
                  churn_ratio >= 4.0 ? 1.0 : churn_ratio / 4.0}});

  // --- depot lock as an hprof site ------------------------------------------
  // The depot is a lock like any other to the profiler: acquisition counts,
  // per-cluster shares, and an owner-transition mix.  All four clusters trip
  // it, so its handoffs skew cross-cluster -- cheap because trips are rare,
  // which is exactly what the acquisition count (vs the shared pool's)
  // shows.
  printf("\nlock sites at p=16 (churn phase): handoff mix\n");
  printf("%-12s %12s %12s %12s %12s\n", "site", "acqs", "same-proc",
         "same-clust", "cross-clust");
  AddHandoffPoint(&report, "shared-pool", shared_site);
  AddHandoffPoint(&report, "slab", depot_site);

  printf("\nslab depot acquisitions by cluster:\n");
  std::uint64_t depot_total = 0;
  for (const auto& [cluster, share] : depot_site.by_cluster()) {
    (void)cluster;
    depot_total += share.acquisitions;
  }
  for (const auto& [cluster, share] : depot_site.by_cluster()) {
    const double frac_share =
        depot_total > 0 ? static_cast<double>(share.acquisitions) /
                              static_cast<double>(depot_total)
                        : 0.0;
    printf("  cluster %u: %llu acquisitions (%.3f of total)\n", cluster,
           static_cast<unsigned long long>(share.acquisitions), frac_share);
    report.AddSeries("depot_by_cluster",
                     {{"alloc", "slab"}, {"cluster", std::to_string(cluster)}})
        .AddPoint({{"procs", 16},
                   {"clusters", static_cast<double>(kClusters)},
                   {"acquisitions", static_cast<double>(share.acquisitions)},
                   {"frac_share", frac_share}});
  }

  if (opts.profile) {
    if (!opts.profile_path.empty()) {
      if (!hmetrics::WriteJsonFile(opts.profile_path, sites.ToJson())) {
        return 1;
      }
      printf("\nwrote lockprof export to %s\n", opts.profile_path.c_str());
    }
    hprof::ProfileReport prof;
    std::string error;
    if (!prof.AddSites(sites, &error)) {
      fprintf(stderr, "hprof: %s\n", error.c_str());
      return 1;
    }
    prof.Rank();
    printf("\n%s", prof.RenderText().c_str());
  }

  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
