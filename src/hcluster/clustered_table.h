// A hierarchically clustered, replicated hash table (Figure 2).
//
// Each cluster owns a complete instance of the table (a HybridTable: coarse
// Distributed Lock + per-entry reserve words).  Every key has a home cluster.
// Reads hit the local replica; on a miss the reader creates a local shell
// entry, holds its exclusive reservation so cluster peers combine on it
// instead of issuing redundant fetches, and fetches the value from the home
// cluster under a *reader* reservation there (so concurrent clusters can
// replicate in parallel).  The remote handler never spins: if the home entry
// is exclusively reserved it fails with would-deadlock and the initiator
// backs off and retries -- the optimistic protocol of Section 2.3.
//
// Writes are global updates and use the pessimistic protocol of Section 2.5:
// the writer updates the home copy first (releasing it before broadcasting)
// and then pushes the new value to every replica-holding cluster, retrying
// any replica whose entry is reserved.

#ifndef HCLUSTER_CLUSTERED_TABLE_H_
#define HCLUSTER_CLUSTERED_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/hcluster/runtime.h"
#include "src/hcluster/topology.h"
#include "src/hlock/hybrid_table.h"
#include "src/hprof/lock_site.h"

namespace hcluster {

template <typename K, typename V, typename Hash = std::hash<K>>
class ClusteredTable {
 public:
  // `read_path` selects how replica readers reach a chain (see
  // hlock::ReadPath): kDistributed (default) gives each worker cluster its
  // own reader counter on the replica's table-level RW lock, so combined
  // reads on *different* keys proceed in parallel instead of serializing on
  // the replica's coarse lock; kCoarse preserves the serializing path (the
  // read-heavy benches race the two).
  explicit ClusteredTable(ClusterRuntime* runtime, std::size_t buckets_per_cluster = 128,
                          hlock::ReadPath read_path = hlock::ReadPath::kDistributed)
      : runtime_(runtime) {
    const std::uint32_t n = runtime_->topology().num_clusters();
    const std::uint32_t per_cluster = runtime_->topology().cluster_size;
    replicas_.reserve(n);
    for (std::uint32_t c = 0; c < n; ++c) {
      replicas_.push_back(std::make_unique<Replica>(buckets_per_cluster, per_cluster, read_path));
    }
  }

  ClusterId home_cluster(const K& key) const {
    return static_cast<ClusterId>(Hash{}(key) % replicas_.size());
  }

  // Reads `key` from the calling worker's cluster replica, replicating from
  // the home cluster on a miss.  Returns nullopt if the key does not exist
  // anywhere.  Must be called from a worker process (it may block).
  std::optional<V> Get(const K& key) {
    const WorkerId self = runtime_->current_worker();
    const ClusterId my_cluster = runtime_->topology().cluster_of(self);
    Replica& local = *replicas_[my_cluster];

    // Fast path: present in the local replica.
    {
      auto entry = local.table.Peek(key);
      if (entry.has_value() && entry->present) {
        ++local.hits;
        return entry->value;
      }
    }

    // Miss: reserve a local shell so cluster peers combine on our fetch.
    // While waiting for the reservation, keep servicing our handler inbox --
    // blocking deaf here deadlocks against workers calling us.
    auto shell = local.table.TryAcquire(key);
    while (!shell) {
      runtime_->ServiceInbox();
      std::this_thread::yield();
      shell = local.table.TryAcquire(key);
    }
    if (shell.value().present) {
      // Someone replicated while we waited for the reservation.
      ++local.hits;
      return shell.value().value;
    }
    const ClusterId home = home_cluster(key);
    if (home == my_cluster) {
      // We *are* the home and the key is absent: nothing to fetch.
      return std::nullopt;
    }

    // Fetch from the home cluster, retrying on would-deadlock.
    const WorkerId peer = runtime_->topology().peer_of(self, home);
    FetchResult fetched;
    int spins = 0;
    while (true) {
      fetched = runtime_->Call(peer, [this, key, home, my_cluster] {
        return FetchAtHome(key, home, my_cluster);
      });
      if (!fetched.would_deadlock) {
        break;
      }
      ++retries_;
      ++spins;
      runtime_->ServiceInbox();
      std::this_thread::yield();
    }
    if (!fetched.found) {
      return std::nullopt;
    }
    shell.value().value = fetched.value;
    shell.value().present = true;
    ++replications_;
    return fetched.value;
  }

  // Globally writes `key` (upsert): updates the home copy, then broadcasts
  // the new value to every cluster that holds a replica.
  void Put(const K& key, const V& value) {
    const ClusterId home = home_cluster(key);
    const WorkerId self = runtime_->current_worker();
    const WorkerId src = self == ClusterRuntime::kNotAWorker ? 0 : self;

    // Update the home copy (and learn who holds replicas), holding nothing
    // while we broadcast afterwards -- the pessimistic strategy.  The home
    // update runs in handler context, so it must not block on the entry
    // reservation: it fails and we retry from here.
    struct HomeUpdate {
      bool ok = false;
      std::uint64_t mask = 0;
    };
    HomeUpdate home_result;
    while (true) {
      home_result = runtime_->Call(
          runtime_->topology().peer_of(src, home), [this, key, &value, home]() -> HomeUpdate {
            Replica& home_replica = *replicas_[home];
            auto guard = home_replica.table.TryAcquire(key);
            if (!guard) {
              return HomeUpdate{};
            }
            guard.value().value = value;
            guard.value().present = true;
            return HomeUpdate{true, guard.value().replica_mask};
          });
      if (home_result.ok) {
        break;
      }
      ++retries_;
      runtime_->ServiceInbox();
      std::this_thread::yield();
    }
    const std::uint64_t replica_mask = home_result.mask;

    for (ClusterId c = 0; c < replicas_.size(); ++c) {
      if (c == home || (replica_mask & (1ULL << c)) == 0) {
        continue;
      }
      const WorkerId peer = runtime_->topology().peer_of(src, c);
      while (true) {
        const bool ok = runtime_->Call(peer, [this, key, &value, c] {
          Replica& replica = *replicas_[c];
          auto guard = replica.table.TryAcquire(key);
          if (!guard) {
            return false;  // reserved: the writer retries
          }
          if (guard.value().present) {
            guard.value().value = value;
          }
          return true;
        });
        if (ok) {
          break;
        }
        ++retries_;
        runtime_->ServiceInbox();
        std::this_thread::yield();
      }
    }
  }

  // Drops the calling cluster's replica of `key` (cache eviction under
  // memory pressure; also what keeps replication traffic alive in stress
  // tests).  Refuses at the home cluster -- that copy is authoritative -- and
  // while the local entry is reserved.  The home's replica mask keeps the
  // stale bit; a later broadcast to this cluster finds a value-less shell and
  // skips it, and the next Get simply re-replicates.  Must be called from a
  // worker process.
  bool DropLocal(const K& key) {
    const WorkerId self = runtime_->current_worker();
    const ClusterId my_cluster = runtime_->topology().cluster_of(self);
    if (my_cluster == home_cluster(key)) {
      return false;
    }
    return replicas_[my_cluster]->table.Erase(key);
  }

  // Attaches four profiling sites per cluster replica to `sites`: the coarse
  // table lock, the reserve-word (fine-grain) site, and the distributed RW
  // chain lock's reader and writer sides (reader holds = chain walks, writer
  // holds = chain-mutation sweeps; the reader site's per-cluster enqueues
  // show which clusters' readers a sweep held up).  Wait/hold samples are
  // host nanoseconds; owner ids are dense thread ids, so the per-cluster
  // handoff split is an approximation of the worker topology.  Call before
  // traffic; `sites` must outlive the table's use.
  void AttachLockProfiler(hprof::SiteTable* sites, const std::string& prefix = "table") {
    const std::uint32_t per_cluster = runtime_->topology().cluster_size;
    for (ClusterId c = 0; c < replicas_.size(); ++c) {
      const std::string base = prefix + ".replica" + std::to_string(c);
      replicas_[c]->table.coarse_lock().set_site(&sites->AddSite(base + ".coarse", per_cluster));
      replicas_[c]->table.set_reserve_site(&sites->AddSite(base + ".reserve", per_cluster));
      replicas_[c]->table.set_chain_sites(&sites->AddSite(base + ".chain.reader", per_cluster),
                                          &sites->AddSite(base + ".chain.writer", per_cluster));
    }
  }

  // --- statistics ------------------------------------------------------------
  std::uint64_t replications() const { return replications_.load(); }
  std::uint64_t retries() const { return retries_.load(); }
  std::uint64_t local_hits(ClusterId c) const { return replicas_[c]->hits.load(); }

 private:
  friend struct ClusteredTableTestPeer;

  struct Entry {
    V value{};
    bool present = false;
    std::uint64_t replica_mask = 0;  // meaningful on the home copy only
  };

  struct Replica {
    Replica(std::size_t buckets, std::uint32_t procs_per_cluster, hlock::ReadPath read_path)
        : table(buckets, procs_per_cluster, read_path) {}
    hlock::HybridTable<K, Entry> table;
    std::atomic<std::uint64_t> hits{0};
  };

  struct FetchResult {
    bool found = false;
    bool would_deadlock = false;
    V value{};
  };

  // Runs on a home-cluster worker in handler context: no spinning allowed.
  FetchResult FetchAtHome(const K& key, ClusterId home, ClusterId requester) {
    Replica& home_replica = *replicas_[home];
    // Record the requester as a replica holder and take a reader reservation.
    auto guard = home_replica.table.TryAcquireShared(key);
    if (!guard) {
      // Absent, or exclusively reserved.  Distinguish cheaply:
      if (!home_replica.table.Contains(key)) {
        return FetchResult{false, false, V{}};
      }
      return FetchResult{false, true, V{}};
    }
    if (!guard.value().present) {
      // A home-local shell with no value behind it: the key does not exist.
      return FetchResult{false, false, V{}};
    }
    FetchResult result;
    result.found = true;
    result.value = guard.value().value;
    guard.Release();
    // Update the replica mask under a short exclusive reservation.
    auto mask_guard = home_replica.table.TryAcquire(key);
    if (mask_guard) {
      mask_guard.value().replica_mask |= 1ULL << requester;
    } else {
      // Raced with a writer; the writer's broadcast may miss us this time,
      // so be conservative: report deadlock and let the reader retry.
      result.found = false;
      result.would_deadlock = true;
    }
    return result;
  }

  ClusterRuntime* runtime_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<std::uint64_t> replications_{0};
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace hcluster

#endif  // HCLUSTER_CLUSTERED_TABLE_H_
