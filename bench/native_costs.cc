// Native (std::atomic) costs of the hlock and hcluster libraries on the host.
//
// The paper's Section 4.1.1 claim is about cost: H2 MCS at 3.69 us against
// 3.65 us for a spin lock.  This bench asks the host-hardware versions of
// that question, each timed the same way:
//
//   pairs        the uncontended lock/unlock pair of every native lock; the
//                hybrid table's acquire/release against the fine-grained and
//                global-lock tables (Figure 1's design comparison), its Peek,
//                its shared readers and a chain insert+erase (each a coarse
//                lock hold plus a drw writer sweep); the replicated counter
//                against one shared atomic.
//   lock race    the serving layer's coarse lock, which every HybridTable
//                exclusive reservation takes: the lock family (H1/H2 MCS vs
//                the NUMA-aware CNA, HMCS-T and Fissile) is raced on exactly
//                that table under a closed-loop mixed workload (7/8 Peek,
//                1/8 exclusive update), with an hprof site attributing
//                handoffs to the synthetic clusters.
//   read path    the same table at the serving mix (95% Peek, 5% update):
//                the distributed per-cluster RW read path against the
//                coarse-serialized one, identical op schedule.
//   clustered    ClusteredTable's first (replicating) read, local hit and
//                global update on two single-worker clusters.
//
// Every case runs in R interleaved rounds, round-robin over the cases, so
// host drift hits every case alike; each case reports its median, and each
// ratio is a ratio of medians from the same run (R = 15, 3 under --smoke).
//
// Threads: the bench never runs more threads than the CPUs it may use
// (sched_getaffinity, so taskset and cpusets count), and pins each to its
// own CPU.  The races run min(usable, 4) threads in 2 synthetic clusters;
// with fewer than 2 usable CPUs they and the clustered section are skipped.
//
// Gated in BENCH_BASELINE.json (the "ratios" series): mcs_h2/mcs_classic,
// mcs_h2/tas, mcs_try_v2/mcs_try_v1, hybrid/fine, hybrid insert+erase over
// the hybrid acquire pair, the race floor
// min(2 / (fissile/h2-mcs), 1) (queue waiters that overshoot their grant put
// h2-mcs far behind fissile's TAS fast path), the read-path floor
// min(distributed/coarse / 3, 1) and the counter total.  The race ratio
// itself, raw nanoseconds and race rates ride ungated: the ratio swings too
// widely in a short run, and the rest measure the host, not the code.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/hcluster/clustered_table.h"
#include "src/hcluster/replicated_counter.h"
#include "src/hcluster/runtime.h"
#include "src/hlock/fine_table.h"
#include "src/hlock/hybrid_table.h"
#include "src/hlock/native_lock.h"
#include "src/hlock/mcs_locks.h"
#include "src/hlock/mcs_try_lock.h"
#include "src/hlock/numa_locks.h"
#include "src/hlock/padded.h"
#include "src/hlock/spin_locks.h"
#include "src/hmetrics/bench_main.h"
#include "src/hprof/lock_site.h"

namespace {

using Clock = std::chrono::steady_clock;

// --- threads -----------------------------------------------------------------

// The CPUs this process may run on.  std::thread::hardware_concurrency
// counts the machine's CPUs and ignores taskset and cpusets.
const std::vector<int>& UsableCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      std::perror("native_costs: sched_getaffinity");
      std::exit(1);
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

// Aborts unless `threads` fit on the usable CPUs: a native cost measured on
// oversubscribed CPUs measures the scheduler.
void RequireCpus(unsigned threads) {
  if (threads > UsableCpus().size()) {
    std::fprintf(stderr, "native_costs: %u threads asked for, only %zu usable CPUs\n",
                 threads, UsableCpus().size());
    std::abort();
  }
}

// Starts every thread the bench runs itself.  Thread i is pinned to the i-th
// usable CPU and runs setup(i); once all have, they run work(i) together.
// Returns the seconds from that common start to the last thread's finish.
template <typename Setup, typename Work>
double RunPinned(unsigned n, Setup setup, Work work) {
  RequireCpus(n);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    pool.emplace_back([&, i] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(UsableCpus()[i], &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      setup(i);
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      work(i);
    });
  }
  while (ready.load(std::memory_order_acquire) != n) {
    std::this_thread::yield();
  }
  const Clock::time_point t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : pool) {
    t.join();
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- rounds ------------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

// Takes sample(c) for every case c once per round, `rounds` times, and
// returns all samples by case.
std::vector<std::vector<double>> Rounds(int rounds, std::size_t cases,
                                        const std::function<double(std::size_t)>& sample) {
  std::vector<std::vector<double>> out(cases);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t c = 0; c < cases; ++c) {
      out[c].push_back(sample(c));
    }
  }
  return out;
}

// --- pairs -------------------------------------------------------------------

// Keeps `value` observable so the compiler cannot drop the work producing it.
template <typename T>
inline void Keep(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

struct Pair {
  const char* name;
  std::function<void(std::size_t)> run;  // runs the pair n times
};

template <typename Lock>
Pair LockPair(const char* name) {
  auto lock = std::make_shared<Lock>();
  return {name, [lock](std::size_t n) {
            for (std::size_t i = 0; i < n; ++i) {
              lock->lock();
              Keep(lock.get());
              lock->unlock();
            }
          }};
}

template <typename Table>
Pair AcquirePair(const char* name) {
  auto table = std::make_shared<Table>();
  return {name, [table](std::size_t n) {
            for (std::size_t i = 0; i < n; ++i) {
              auto guard = table->Acquire(1);
              guard.value() += 1;
              Keep(guard.value());
            }
          }};
}

// --- coarse-lock race --------------------------------------------------------

// Processors per synthetic cluster for the races: the race threads are split
// into 2 clusters.  HybridTable default-constructs its CoarseLock, so every
// raced lock is wrapped to be built on that map: the NUMA-aware locks use it,
// and every lock reports its handoffs to the hprof site by it.
std::uint32_t g_race_ppc = 1;

template <typename Lock, auto... kCoreArgs>
struct OnRaceClusters : Lock {
  OnRaceClusters() : Lock(g_race_ppc, kCoreArgs...) {}
};
using McsCoreLock = hlock::NativeLock<hlock::algo::McsCore>;

constexpr std::uint64_t kRaceKeys = 64;

// Closed loop over a shared 64-key table: every `write_every`-th op is an
// exclusive update, the rest are Peeks.  Thread t seeds keys t, t+n, ...
// before the timed phase.  Returns completed ops per second.
template <typename Table>
double RunTableRace(Table& table, unsigned threads, std::size_t ops_per_thread,
                    std::size_t write_every) {
  const double seconds = RunPinned(
      threads,
      [&](unsigned t) {
        for (std::uint64_t key = t; key < kRaceKeys; key += threads) {
          auto guard = table.Acquire(key);
          guard.value() = key;
        }
      },
      [&](unsigned t) {
        std::uint64_t h = t * 2654435761u + 12345;
        for (std::size_t i = 0; i < ops_per_thread; ++i) {
          h = h * 6364136223846793005u + 1442695040888963407u;
          const std::uint64_t key = (h >> 33) % kRaceKeys;
          if (i % write_every == 0) {
            auto guard = table.Acquire(key);
            guard.value() += 1;
          } else {
            Keep(table.Peek(key));
          }
        }
      });
  return seconds > 0 ? static_cast<double>(ops_per_thread * threads) / seconds : 0;
}

template <typename CoarseLock>
double RaceCoarseLock(unsigned threads, std::size_t ops_per_thread,
                      hprof::LockSiteStats* site) {
  hlock::HybridTable<std::uint64_t, std::uint64_t, CoarseLock> table;
  table.coarse_lock().set_site(site);
  return RunTableRace(table, threads, ops_per_thread, /*write_every=*/8);
}

double RaceReadPath(hlock::ReadPath path, unsigned threads, std::size_t ops_per_thread) {
  hlock::HybridTable<std::uint64_t, std::uint64_t> table(/*num_buckets=*/128, g_race_ppc,
                                                         path);
  return RunTableRace(table, threads, ops_per_thread, /*write_every=*/20);
}

// --- clustered table ---------------------------------------------------------

template <typename Fn>
void RunOn(hcluster::ClusterRuntime& rt, hcluster::WorkerId w, Fn fn) {
  std::atomic<bool> done{false};
  rt.Post(w, [&] {
    fn();
    done = true;
  });
  while (!done) {
    std::this_thread::yield();
  }
}

double UsPerOp(Clock::time_point t0, int ops) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count() / ops;
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  const int rounds = opts.smoke ? 3 : 15;
  const std::size_t pair_iters = 100000;
  const std::size_t race_ops = opts.smoke ? 500 : 2000;
  const auto usable = static_cast<unsigned>(UsableCpus().size());
  const unsigned threads = usable >= 2 ? std::min(usable, 4u) : 0;
  g_race_ppc = (threads + 1) / 2;

  hmetrics::BenchReport report("native_costs");
  report.SetEnv("sim", "native-host");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  report.SetParam("rounds", rounds);
  report.SetParam("usable_cpus", usable);
  report.SetParam("race_threads", threads);
  hmetrics::Point ratios;

  // Uncontended pairs, all on one pinned thread.  It runs first and alone,
  // and exits before the races, so the race threads own dense hlock ids
  // 0..threads-1 and the synthetic clusters are id / g_race_ppc.
  std::vector<Pair> pairs;
  std::int64_t counter_adds = 0;
  std::int64_t counter_total = 0;
  std::vector<std::vector<double>> pair_ns;
  RunPinned(1, [](unsigned) {}, [&](unsigned) {
    // The queue node sits a line from the lock at a fixed offset: on the
    // stack, its distance to the heap lock changes per run, and so did the
    // pair's cost (4K aliasing), by up to 20%.
    struct Classic {
      hlock::Padded<hlock::McsLock> lock;
      hlock::Padded<hlock::McsLock::QNode> node;
    };
    auto classic = std::make_shared<Classic>();
    auto hybrid = std::make_shared<hlock::HybridTable<int, int>>();
    auto chains = std::make_shared<hlock::HybridTable<int, int>>();
    auto global = std::make_shared<hlock::GlobalTable<int, int>>();
    hybrid->Acquire(7).value() = 42;
    global->With(1, [](int& v) { v = 0; });
    auto counter = std::make_shared<hcluster::ReplicatedCounter>(hcluster::Topology{2, 1});
    auto shared = std::make_shared<std::atomic<std::int64_t>>(0);
    pairs = {
        LockPair<hlock::TasSpinLock>("tas"),
        LockPair<hlock::TtasSpinLock>("ttas"),
        LockPair<hlock::BackoffSpinLock>("backoff"),
        {"mcs_classic",
         [classic](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             classic->lock->lock(*classic->node);
             Keep(classic.get());
             classic->lock->unlock(*classic->node);
           }
         }},
        LockPair<hlock::McsH1Lock>("mcs_h1"),
        LockPair<hlock::McsH2Lock>("mcs_h2"),
        LockPair<hlock::McsTryV1Lock>("mcs_try_v1"),
        LockPair<hlock::McsTryV2Lock>("mcs_try_v2"),
        AcquirePair<hlock::HybridTable<int, int>>("hybrid_acquire"),
        AcquirePair<hlock::FineTable<int, int>>("fine_acquire"),
        {"global_with",
         [global](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             global->With(1, [](int& v) {
               v += 1;
               Keep(v);
             });
           }
         }},
        {"hybrid_peek",
         [hybrid](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             Keep(hybrid->Peek(7));
           }
         }},
        {"hybrid_shared",
         [hybrid](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             auto guard = hybrid->AcquireShared(7);
             Keep(guard.value());
           }
         }},
        {"hybrid_insert_erase",
         [chains](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             Keep(chains->Acquire(1).value());  // absent: inserts, then reserves
             Keep(chains->Erase(1));
           }
         }},
        {"counter_add",
         [counter, &counter_adds](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             counter->Add(/*worker=*/0, 1);
           }
           counter_adds += static_cast<std::int64_t>(n);
         }},
        {"atomic_add",
         [shared](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             shared->fetch_add(1, std::memory_order_relaxed);
           }
         }},
    };
    pair_ns = Rounds(rounds, pairs.size(), [&](std::size_t c) {
      const Clock::time_point t0 = Clock::now();
      pairs[c].run(pair_iters);
      return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
             static_cast<double>(pair_iters);
    });
    counter_total = counter->Total();
  });

  std::map<std::string, double> median;
  std::printf("native costs on %u usable CPU(s), %d interleaved rounds\n\n", usable, rounds);
  std::printf("uncontended pairs (%zu per sample), ns/op\n", pair_iters);
  std::printf("%-16s %10s %10s %10s\n", "op", "median", "min", "max");
  for (std::size_t c = 0; c < pairs.size(); ++c) {
    const auto [lo, hi] = std::minmax_element(pair_ns[c].begin(), pair_ns[c].end());
    const double ns = median[pairs[c].name] = Median(pair_ns[c]);
    std::printf("%-16s %10.1f %10.1f %10.1f\n", pairs[c].name, ns, *lo, *hi);
    report.AddSeries("pair_ns", {{"op", pairs[c].name}})
        .AddPoint({{"threads", 1}, {"median_ns", ns}, {"min_ns", *lo}, {"max_ns", *hi}});
  }
  ratios["ratio_mcs_h2_over_mcs_classic"] = median["mcs_h2"] / median["mcs_classic"];
  ratios["ratio_mcs_h2_over_tas"] = median["mcs_h2"] / median["tas"];
  ratios["ratio_mcs_try_v2_over_mcs_try_v1"] = median["mcs_try_v2"] / median["mcs_try_v1"];
  ratios["ratio_hybrid_over_fine"] = median["hybrid_acquire"] / median["fine_acquire"];
  ratios["ratio_hybrid_insert_over_acquire"] =
      median["hybrid_insert_erase"] / median["hybrid_acquire"];
  ratios["frac_counter_total_ok"] = counter_total == counter_adds ? 1.0 : 0.0;
  std::printf("mcs_h2/mcs_classic %.2f, mcs_h2/tas %.2f, mcs_try_v2/mcs_try_v1 %.2f, "
              "hybrid/fine %.2f, hybrid insert+erase/acquire %.2f, counter total %s\n\n",
              ratios["ratio_mcs_h2_over_mcs_classic"], ratios["ratio_mcs_h2_over_tas"],
              ratios["ratio_mcs_try_v2_over_mcs_try_v1"], ratios["ratio_hybrid_over_fine"],
              ratios["ratio_hybrid_insert_over_acquire"],
              counter_total == counter_adds ? "ok" : "WRONG");

  if (threads == 0) {
    std::printf("lock race, read path and clustered table skipped: %u usable CPU, "
                "they need 2\n",
                usable);
  } else {
    // Coarse-lock race.
    struct RaceLock {
      const char* name;
      double (*run)(unsigned, std::size_t, hprof::LockSiteStats*);
    };
    const RaceLock kRaceLocks[] = {
        {"h1-mcs", &RaceCoarseLock<OnRaceClusters<McsCoreLock, hlock::algo::McsVariant::kH1>>},
        {"h2-mcs", &RaceCoarseLock<OnRaceClusters<McsCoreLock, hlock::algo::McsVariant::kH2>>},
        {"cna", &RaceCoarseLock<OnRaceClusters<hlock::CnaLock>>},
        {"hmcs-t", &RaceCoarseLock<OnRaceClusters<hlock::HmcsTLock>>},
        {"fissile", &RaceCoarseLock<OnRaceClusters<hlock::FissileLock>>},
    };
    hprof::SiteTable sites(/*ticks_per_us=*/1000.0);  // native: nanoseconds
    std::vector<hprof::LockSiteStats*> site_of;
    for (const RaceLock& lock : kRaceLocks) {
      site_of.push_back(&sites.AddSite(std::string("race/coarse/") + lock.name, g_race_ppc));
    }
    const std::vector<std::vector<double>> race = Rounds(
        rounds, std::size(kRaceLocks),
        [&](std::size_t c) { return kRaceLocks[c].run(threads, race_ops, site_of[c]); });
    std::printf("coarse-lock race (%u threads, 2 clusters, %zu ops/thread)\n", threads,
                race_ops);
    std::printf("%-10s %12s %10s %11s %11s %12s %8s\n", "lock", "ops/s", "contended",
                "same-proc", "same-clust", "cross-clust", "maxq");
    for (std::size_t c = 0; c < std::size(kRaceLocks); ++c) {
      const hprof::LockSiteStats& site = *site_of[c];
      const double acqs = static_cast<double>(site.acquisitions());
      const double same_proc =
          static_cast<double>(site.handoffs(hprof::Handoff::kSameProcessor));
      const double same_clust = static_cast<double>(site.handoffs(hprof::Handoff::kSameCluster));
      const double cross_clust =
          static_cast<double>(site.handoffs(hprof::Handoff::kCrossCluster));
      const double handoffs = std::max(same_proc + same_clust + cross_clust, 1.0);
      const hmetrics::Point point = {
          {"threads", static_cast<double>(threads)},
          {"ops_per_s", Median(race[c])},
          {"frac_contended", acqs > 0 ? static_cast<double>(site.contended()) / acqs : 0},
          {"frac_same_processor", same_proc / handoffs},
          {"frac_same_cluster", same_clust / handoffs},
          {"frac_cross_cluster", cross_clust / handoffs},
          {"max_queue_depth", static_cast<double>(site.max_queue_depth())}};
      std::printf("%-10s %12.0f %10.3f %11.3f %11.3f %12.3f %8.0f\n", kRaceLocks[c].name,
                  point.at("ops_per_s"), point.at("frac_contended"),
                  point.at("frac_same_processor"), point.at("frac_same_cluster"),
                  point.at("frac_cross_cluster"), point.at("max_queue_depth"));
      median[std::string("race/") + kRaceLocks[c].name] = point.at("ops_per_s");
      report.AddSeries("lock_race", {{"lock", kRaceLocks[c].name}}).AddPoint(point);
    }
    const double h2_rate = median["race/h2-mcs"];
    const double fissile_over_h2 = h2_rate > 0 ? median["race/fissile"] / h2_rate : 0;
    ratios["ratio_race_fissile_over_h2"] = fissile_over_h2;
    ratios["frac_race_h2_floor_met"] =
        fissile_over_h2 > 0 ? std::min(2.0 / fissile_over_h2, 1.0) : 0;
    std::printf("fissile/h2-mcs %.2f (floor 2x)\n", fissile_over_h2);

    // Read-path race at the serving mix.
    const hlock::ReadPath kPaths[] = {hlock::ReadPath::kCoarse, hlock::ReadPath::kDistributed};
    const std::vector<std::vector<double>> paths = Rounds(rounds, 2, [&](std::size_t c) {
      return RaceReadPath(kPaths[c], threads, race_ops);
    });
    // 19 of every 20 ops are reads, so the read rate is 0.95 of the op rate.
    const double coarse_reads = 0.95 * Median(paths[0]);
    const double dist_reads = 0.95 * Median(paths[1]);
    const double speedup = coarse_reads > 0 ? dist_reads / coarse_reads : 0;
    ratios["frac_read_floor_met"] = std::min(speedup / 3.0, 1.0);
    std::printf("\nread-path race at 95%%/5%% (%u threads, 2 clusters, %zu ops/thread)\n",
                threads, race_ops);
    std::printf("coarse %.0f reads/s, distributed %.0f reads/s: %.2fx (floor 3x)\n\n",
                coarse_reads, dist_reads, speedup);
    report.AddSeries("read_path").AddPoint({{"threads", static_cast<double>(threads)},
                                            {"coarse_reads_per_s", coarse_reads},
                                            {"distributed_reads_per_s", dist_reads},
                                            {"reader_speedup", speedup}});

    // Clustered table on two single-worker clusters.  The runtime starts its
    // own two workers; the main thread only waits on them.
    RequireCpus(2);
    hcluster::ClusterRuntime rt(hcluster::Topology{2, 1});
    hcluster::ClusteredTable<int, int> table(&rt);
    constexpr int kKeys = 64;
    for (int k = 0; k < kKeys; ++k) {
      table.Put(k, k);
    }
    double first_read_us = 0;
    double hit_us = 0;
    const int reads = 20000;
    RunOn(rt, 0, [&] {
      Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kKeys; ++k) {
        Keep(table.Get(k));
      }
      first_read_us = UsPerOp(t0, kKeys);
      t0 = Clock::now();
      for (int i = 0; i < reads; ++i) {
        Keep(table.Get(i % kKeys));
      }
      hit_us = UsPerOp(t0, reads);
    });
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < kKeys; ++k) {
      table.Put(k, k + 1);
    }
    const double put_us = UsPerOp(t0, kKeys);
    std::printf("clustered table (2 workers, 2 clusters of 1), us/op\n");
    std::printf("first read (replicates the remote keys) %8.3f\n", first_read_us);
    std::printf("repeat read (local hits)                %8.3f\n", hit_us);
    std::printf("global update, replicas everywhere      %8.3f\n", put_us);
    report.AddSeries("clustered_table")
        .AddPoint({{"threads", 2},
                   {"first_read_us", first_read_us},
                   {"local_hit_us", hit_us},
                   {"global_update_us", put_us},
                   {"replications", static_cast<double>(table.replications())},
                   {"retries", static_cast<double>(table.retries())}});
  }

  report.AddSeries("ratios").AddPoint(ratios);
  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
