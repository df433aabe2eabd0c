// hsvc -- a NUMA-sharded request-serving runtime over the hierarchical
// clustering layer (the paper's kernel, turned outward to face clients).
//
// The hcluster ClusteredTable bounds *lock* contention by clustering; hsvc
// adds the layer modern NUMA-lock evaluations (Dice & Kogan's compact
// NUMA-aware locks; Elphinstone et al.'s microkernel study) measure lock
// designs through: a real request path with queueing, batching, and
// admission behavior.  Each cluster is a shard; each worker of a cluster
// runs a *pump* -- a long-lived process on the ClusterRuntime worker that
// drains a bounded MPSC request queue in batches and executes the operations
// against the clustered table, servicing its RPC inbox before every request
// (the worker stays a schedulable resource, Section 2.3).
//
// The contract with clients mirrors the kernel's optimistic protocol:
//   - Submit is admission-controlled: a full shard queue rejects the request
//     synchronously with a retry-after hint derived from the backlog and the
//     pump's smoothed service time.  Clients back off (jittered, doubling)
//     and retry -- exactly how remote lock requests behave in Section 2.3,
//     so overload degrades into bounded-latency rejection instead of
//     queueing collapse.
//   - Admitted requests carry a deadline; a pump dequeues an expired request
//     and fails it without executing (the work was already wasted once the
//     client gave up -- don't waste the shard's time too).
//   - Reads are routed to the client's own cluster (served from the local
//     replica, replicating on miss); writes are routed to the key's home
//     cluster, where the pump batches arrivals and *combines* reads of the
//     same key within a batch -- the Section 2.4 combining argument lifted
//     to the request layer.
//
// Requests are client-owned, type-stable nodes (footnote-2 discipline): the
// service never allocates per request.  Completion hands the node back by
// pushing it onto the client's lock-free return stack (hlock's Treiber free
// list), so the producer side is allocation- and lock-free end to end.
//
// Observability: per-shard hmetrics (admitted/rejected/expired/served
// counters, queue-depth gauge, and wait/service/batch-fill histograms that
// each pump keeps as fixed-size buckets, merged at export) via
// ExportMetrics, and hprof lock sites on every shard lock (each replica's
// coarse table lock and reserve word) via AttachLockProfiler.

#ifndef HSVC_SERVICE_H_
#define HSVC_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/hcluster/clustered_table.h"
#include "src/hcluster/runtime.h"
#include "src/hcluster/topology.h"
#include "src/hflight/flight.h"
#include "src/hlock/lock_free.h"
#include "src/hmetrics/histogram.h"
#include "src/hmetrics/registry.h"
#include "src/hprof/lock_site.h"
#include "src/hsvc/request_queue.h"

namespace hsvc {

enum class OpKind : std::uint8_t { kGet, kPut };

// Fates of an *admitted* request.  Rejection is synchronous: Submit returns
// it and the node never enters a queue.
enum class Status : std::uint8_t { kPending, kOk, kNotFound, kExpired };

// One request: a client-owned, type-stable node.  The client fills the
// input fields, submits, and must not touch the node again until the service
// hands it back through `completion`; the output fields are valid from then
// on.  Nodes are recycled, never freed, while the service is in use.
struct Request {
  // Return-path linkage: the service pushes the completed node here.  Must
  // be the first member -- completion stacks speak hlock::LockFreeNode and
  // the owner recovers the Request with FromFreeLink.
  hlock::LockFreeNode free_link;
  std::atomic<Request*> mpsc_next{nullptr};  // shard-queue linkage

  // --- inputs (client-written) ---------------------------------------------
  hlock::LockFreeFreeList* completion = nullptr;  // completed nodes land here
  OpKind kind = OpKind::kGet;
  std::uint64_t key = 0;
  std::uint64_t value_in = 0;     // kPut payload
  std::uint64_t scheduled_ns = 0; // client's intended arrival instant
                                  // (coordinated-omission-safe latency base)
  std::uint64_t deadline_ns = 0;  // service clock; 0 = config default / none
  std::uint32_t retries = 0;      // client-side bookkeeping, service-ignored
  // Optional flight record (opened/closed by the client; the service stamps
  // its pipeline boundaries into it and arms the lock-wait ledger around
  // table operations when ServiceConfig::flight is attached).
  hflight::FlightRecord* flight = nullptr;

  // --- outputs (service-written, valid after completion) -------------------
  Status status = Status::kPending;
  std::uint64_t value_out = 0;
  std::uint64_t enqueue_ns = 0;   // stamped by Submit
  std::uint64_t start_ns = 0;     // pump dequeued it
  std::uint64_t done_ns = 0;      // pump finished it

  static Request* FromFreeLink(hlock::LockFreeNode* node) {
    // free_link is the first member of a non-virtual type, so the node's
    // address *is* the request's address.
    return reinterpret_cast<Request*>(node);
  }
};

struct AdmitResult {
  bool admitted = false;
  // Backoff hint when rejected: roughly backlog x smoothed service time.
  // Clients jitter and double it across consecutive rejections.
  std::uint32_t retry_after_us = 0;
};

struct ServiceConfig {
  hcluster::Topology topology{8, 2};
  std::size_t queue_bound = 256;           // per pump (per shard worker)
  std::size_t batch_max = 16;              // requests drained per pump wakeup
  std::size_t buckets_per_cluster = 256;   // clustered-table sizing
  std::uint64_t default_deadline_ns = 0;   // applied when a request has none;
                                           // 0 = no deadline
  // Paced service: each pump serves at most this many requests per second
  // (token bucket).  0 = unpaced (as fast as the table allows).  Benches use
  // pacing to make shard *capacity* a configured quantity, so admission and
  // scaling results are rate-determined instead of host-speed-determined.
  double service_rate_per_worker = 0;
  // How replica readers reach a table chain (see hlock::ReadPath).
  // kDistributed (default) lets pumps on different clusters -- and the
  // *different-key* reads a batch could not combine -- walk the same
  // replica's chains in parallel; kCoarse serializes every read on the
  // replica's coarse lock (kept as the read-heavy bench baseline).
  hlock::ReadPath read_path = hlock::ReadPath::kDistributed;
  // Optional flight recorder: when set, pumps arm a ScopedLedger around
  // table operations so lock waits/holds land in the request's phase ledger
  // (requests without a FlightRecord still serve normally).  Must outlive
  // the service.
  hflight::FlightRecorder* flight = nullptr;
};

class Service {
 public:
  explicit Service(const ServiceConfig& config);
  // Completes every admitted request, stops the pumps, and drains the
  // runtime.  Callers must have stopped submitting.
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Monotonic service clock, nanoseconds.  Shared by clients for scheduled
  // arrivals and deadlines.
  static std::uint64_t NowNs();

  const ServiceConfig& config() const { return config_; }
  std::uint32_t num_shards() const { return config_.topology.num_clusters(); }
  hcluster::ClusterId home_cluster(std::uint64_t key) const {
    return table_->home_cluster(key);
  }

  // Submits `req` on behalf of a client attached to cluster `origin`.  Reads
  // run on the origin shard (local replica); writes run on the key's home
  // shard.  Returns admitted=false with a retry-after hint when the target
  // queue is full; the node is then still owned by the caller.
  AdmitResult Submit(Request* req, hcluster::ClusterId origin);

  // Blocks until every admitted request has completed and no pump touches
  // it any more (the caller may then free it).  Call from outside the
  // service's threads, after producers have stopped.
  void Drain();

  // Administrative/back-door access to the underlying table (preloads,
  // verification).  Usable concurrently with serving.
  hcluster::ClusteredTable<std::uint64_t, std::uint64_t>& table() { return *table_; }

  // Attaches hprof sites to every shard lock (per-replica coarse lock and
  // reserve word).  Call before traffic; `sites` must outlive the service.
  void AttachLockProfiler(hprof::SiteTable* sites);

  // Writes per-shard series into `out`: counters svc.admitted / svc.rejected
  // / svc.expired / svc.served / svc.batches / svc.combined_gets, gauge
  // svc.queue_depth, histograms svc.wait_us / svc.service_us /
  // svc.batch_fill, each labeled {shard: N}.  Histograms are merged from the
  // shard's pumps; call when traffic is quiescent (counters and the gauge
  // are safe any time).
  void ExportMetrics(hmetrics::Registry* out) const;

  // --- aggregate counters (any time) ---------------------------------------
  // served/expired count a request after its completion is pushed, so a
  // client that has just popped a completion may not see it counted yet;
  // Drain() first to compare them with the completions seen.
  std::uint64_t admitted() const { return Sum(&Pump::admitted); }
  std::uint64_t rejected() const { return Sum(&Pump::rejected); }
  std::uint64_t expired() const { return Sum(&Pump::expired); }
  std::uint64_t served() const { return Sum(&Pump::served); }
  std::uint64_t combined_gets() const { return Sum(&Pump::combined); }

 private:
  friend struct ServiceTestPeer;

  struct Pump {
    explicit Pump(std::size_t bound) : queue(bound) {}

    BoundedMpscQueue<Request> queue;
    // Submit->pump wake protocol: the pump sets `idle` (seq_cst) and then
    // re-polls the queue before sleeping; Submit pushes and then reads
    // `idle` (seq_cst).  At least one side sees the other, so a request
    // cannot be stranded behind a sleeping pump.
    std::atomic<bool> idle{false};

    // Producer-side counters (any client thread).
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> rejected{0};
    // Pump-side counters (single writer, concurrent readers; served and
    // expired are bumped with release, see Complete).
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> combined{0};
    std::atomic<std::uint64_t> ema_service_ns{2000};  // retry-after input

    // Pump-thread-only, exported quiescently.  Bounded bucket histograms:
    // recording allocates nothing, and the percentiles cover the whole run.
    hmetrics::Histogram wait_us;
    hmetrics::Histogram service_us;
    hmetrics::Histogram batch_fill;

    // Token-bucket pacing state (pump-thread-only).
    double tokens = 0;
    std::uint64_t last_refill_ns = 0;
  };

  void PumpLoop(std::uint32_t worker);
  void ProcessBatch(Pump& pump, std::vector<Request*>& batch);
  void Complete(Pump& pump, Request* req, Status status, std::uint64_t value);
  void PaceOne(Pump& pump);

  std::uint64_t Sum(std::atomic<std::uint64_t> Pump::* counter) const {
    std::uint64_t total = 0;
    for (const auto& pump : pumps_) {
      // Acquire pairs with Complete's release count (see Drain).
      total += (pump.get()->*counter).load(std::memory_order_acquire);
    }
    return total;
  }

  ServiceConfig config_;
  std::unique_ptr<hcluster::ClusterRuntime> runtime_;
  std::unique_ptr<hcluster::ClusteredTable<std::uint64_t, std::uint64_t>> table_;
  std::vector<std::unique_ptr<Pump>> pumps_;  // one per worker
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> pumps_live_{0};
};

}  // namespace hsvc

#endif  // HSVC_SERVICE_H_
