#include "src/hsvc/service.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace hsvc {
namespace {

// Fibonacci hashing spreads adjacent keys across a shard's pumps; the raw key
// already picked the cluster via std::hash (identity for integers), so the
// within-shard pick must not reuse the same low bits.
inline std::uint32_t MixKey(std::uint64_t key) {
  return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 40);
}

}  // namespace

std::uint64_t Service::NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

Service::Service(const ServiceConfig& config) : config_(config) {
  runtime_ = std::make_unique<hcluster::ClusterRuntime>(config_.topology);
  table_ = std::make_unique<hcluster::ClusteredTable<std::uint64_t, std::uint64_t>>(
      runtime_.get(), config_.buckets_per_cluster, config_.read_path);
  pumps_.reserve(config_.topology.workers);
  for (std::uint32_t w = 0; w < config_.topology.workers; ++w) {
    pumps_.push_back(std::make_unique<Pump>(config_.queue_bound));
  }
  // One pump process per worker.  They run until ~Service; the runtime's
  // drain-on-destroy would otherwise wait on them forever, so the destructor
  // stops them before the runtime goes down.
  for (std::uint32_t w = 0; w < config_.topology.workers; ++w) {
    pumps_live_.fetch_add(1, std::memory_order_relaxed);
    runtime_->Post(w, [this, w] { PumpLoop(w); });
  }
}

Service::~Service() {
  stop_.store(true, std::memory_order_release);
  for (std::uint32_t w = 0; w < config_.topology.workers; ++w) {
    runtime_->Kick(w);
  }
  while (pumps_live_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  // Members destruct in reverse order: pumps, then the table, then the
  // runtime (whose destructor drains any still-running handler work).
}

AdmitResult Service::Submit(Request* req, hcluster::ClusterId origin) {
  // Writes execute where the key lives (home shard: the broadcast fans out
  // from there); reads execute where the client lives (local replica).
  const hcluster::ClusterId shard =
      req->kind == OpKind::kPut ? home_cluster(req->key)
                                : static_cast<hcluster::ClusterId>(origin % num_shards());
  const std::uint32_t within = MixKey(req->key) % config_.topology.cluster_size;
  const hcluster::WorkerId w = shard * config_.topology.cluster_size + within;
  Pump& pump = *pumps_[w];

  const std::uint64_t now = NowNs();
  if (req->deadline_ns == 0 && config_.default_deadline_ns != 0) {
    req->deadline_ns = now + config_.default_deadline_ns;
  }
  req->status = Status::kPending;
  req->enqueue_ns = now;
  if (req->flight != nullptr) {
    // Admission boundary: admit phase = begin..here.  Stamped before the
    // push -- the queue's release/acquire edge transfers record ownership to
    // the pump -- and rolled back below if admission fails (the node never
    // left the caller, so rejected requests stay entirely in admit + reply).
    req->flight->enqueue = now;
  }

  if (!pump.queue.TryPush(req)) {
    if (req->flight != nullptr) {
      req->flight->enqueue = hflight::FlightRecord::kUnset;
    }
    pump.rejected.fetch_add(1, std::memory_order_relaxed);
    // Retry-after ~= time for the pump to work off its current backlog.
    const std::uint64_t backlog = pump.queue.depth();
    const std::uint64_t ema = pump.ema_service_ns.load(std::memory_order_relaxed);
    const std::uint64_t us = backlog * ema / 1000;
    return AdmitResult{false,
                       static_cast<std::uint32_t>(std::clamp<std::uint64_t>(us, 50, 100000))};
  }
  pump.admitted.fetch_add(1, std::memory_order_relaxed);
  // seq_cst pairs with the pump's idle protocol (see Pump::idle): either we
  // see idle and kick, or the pump's post-idle re-poll sees our push.
  if (pump.idle.load(std::memory_order_seq_cst)) {
    runtime_->Kick(w);
  }
  return AdmitResult{true, 0};
}

void Service::PumpLoop(std::uint32_t worker) {
  Pump& pump = *pumps_[worker];
  std::vector<Request*> batch;
  batch.reserve(config_.batch_max);

  const auto fill_batch = [&] {
    batch.clear();
    while (batch.size() < config_.batch_max) {
      Request* req = pump.queue.Pop();
      if (req == nullptr) {
        break;
      }
      batch.push_back(req);
    }
  };

  while (!stop_.load(std::memory_order_acquire)) {
    // Handlers first: remote fetches and broadcast writes directed at this
    // worker are what *other* pumps are blocked on.  ProcessBatch keeps
    // servicing them between requests.
    runtime_->ServiceInbox();
    fill_batch();
    if (!batch.empty()) {
      ProcessBatch(pump, batch);
      continue;
    }
    // Idle.  Epoch before the idle flag: a Kick after this snapshot makes
    // WaitForWork fall through; a push before it is caught by the depth
    // re-check below (the seq_cst store/load pairing with Submit guarantees
    // one of the two).
    const std::uint64_t epoch = runtime_->WakeEpoch();
    pump.idle.store(true, std::memory_order_seq_cst);
    if (pump.queue.depth() == 0 && !stop_.load(std::memory_order_acquire)) {
      runtime_->WaitForWork(epoch, std::chrono::milliseconds(1));
    }
    pump.idle.store(false, std::memory_order_relaxed);
  }

  // Stopped: producers are gone (the destructor's contract), but admitted
  // requests may still be queued.  Complete them -- an admitted request is a
  // promise.  depth() counting fully-linked pushes only, Pop() cannot
  // transiently fail here.
  while (pump.queue.depth() != 0) {
    fill_batch();
    if (!batch.empty()) {
      ProcessBatch(pump, batch);
    }
  }
  pumps_live_.fetch_sub(1, std::memory_order_acq_rel);
}

void Service::ProcessBatch(Pump& pump, std::vector<Request*>& batch) {
  pump.batches.fetch_add(1, std::memory_order_relaxed);
  pump.batch_fill.Record(batch.size());

  // Within-batch read combining (Section 2.4 at the request layer): one
  // table lookup serves every same-key read in the batch.  A write to the
  // key invalidates the cached value.
  bool cache_valid = false;
  bool cache_found = false;
  std::uint64_t cache_key = 0;
  std::uint64_t cache_value = 0;

  for (Request* req : batch) {
    // The worker is a schedulable resource (Section 2.3) at request
    // granularity: a remote pump blocked on us -- a put's broadcast, a
    // replica fetch -- waits for at most one request, not the rest of the
    // batch.  Nothing is held between requests, and the combining cache
    // below stays linearizable across handler writes: every request in the
    // batch was submitted before the batch was filled, so a combined read
    // can take effect at the instant the cached lookup ran.
    runtime_->ServiceInbox();
    const std::uint64_t start = NowNs();
    req->start_ns = start;
    if (req->flight != nullptr) {
      req->flight->start = start;
    }
    pump.wait_us.Record((start - req->enqueue_ns) / 1000);
    if (req->deadline_ns != 0 && start > req->deadline_ns) {
      Complete(pump, req, Status::kExpired, 0);
      continue;
    }
    if (req->kind == OpKind::kGet && cache_valid && cache_key == req->key) {
      // Combined reads never touch the table, so they are exempt from
      // pacing: batching buys real capacity, exactly the Section 2.4 claim.
      pump.combined.fetch_add(1, std::memory_order_relaxed);
      Complete(pump, req, cache_found ? Status::kOk : Status::kNotFound,
               cache_found ? cache_value : 0);
      continue;
    }
    PaceOne(pump);
    if (req->flight != nullptr) {
      // Execution boundary: pacing dwell stays in the batch phase, table
      // work (and its lock waits, via the ledger below) lands in exec..done.
      req->flight->exec = NowNs();
    }
    hflight::ScopedLedger ledger(config_.flight, req->flight);
    if (req->kind == OpKind::kGet) {
      // Different-key reads cannot combine, but on the distributed read path
      // they no longer serialize either: Get's replica lookup is a
      // cluster-local reader entry on the table's RW chain lock, so every
      // pump's uncombined reads proceed in parallel.
      const std::optional<std::uint64_t> value = table_->Get(req->key);
      cache_valid = true;
      cache_key = req->key;
      cache_found = value.has_value();
      cache_value = value.value_or(0);
      Complete(pump, req, cache_found ? Status::kOk : Status::kNotFound, cache_value);
    } else {
      table_->Put(req->key, req->value_in);
      if (cache_valid && cache_key == req->key) {
        cache_valid = false;
      }
      Complete(pump, req, Status::kOk, req->value_in);
    }
  }
}

void Service::Complete(Pump& pump, Request* req, Status status, std::uint64_t value) {
  req->status = status;
  req->value_out = value;
  req->done_ns = NowNs();
  if (req->flight != nullptr) {
    req->flight->done = req->done_ns;
  }
  const bool expired = status == Status::kExpired;
  if (!expired) {
    const std::uint64_t service_ns = req->done_ns - req->start_ns;
    pump.service_us.Record(service_ns / 1000);
    // EMA with 1/8 gain: smooth enough for a retry-after hint, cheap enough
    // for the per-request path.
    const std::uint64_t ema = pump.ema_service_ns.load(std::memory_order_relaxed);
    pump.ema_service_ns.store(ema - ema / 8 + service_ns / 8, std::memory_order_relaxed);
  }
  hlock::LockFreeFreeList* completion = req->completion;
  // Push is a release: the client's Pop acquires, so every output field
  // written above is visible to the owner when the node comes back.
  completion->Push(&req->free_link);
  // Counted last, with release: Drain() acquires these counts, so once it
  // sees a request done this pump no longer touches it (the caller may free
  // it) -- Push's writes to the node and the list head included.
  (expired ? pump.expired : pump.served).fetch_add(1, std::memory_order_release);
}

void Service::PaceOne(Pump& pump) {
  if (config_.service_rate_per_worker <= 0) {
    return;
  }
  if (pump.last_refill_ns == 0) {
    pump.last_refill_ns = NowNs();
    pump.tokens = 1;  // first request is free
  }
  while (pump.tokens < 1) {
    const std::uint64_t now = NowNs();
    pump.tokens += static_cast<double>(now - pump.last_refill_ns) * 1e-9 *
                   config_.service_rate_per_worker;
    // Cap at one token: an idle pump does not bank a burst, so the
    // configured rate is a hard ceiling on table operations per second.
    pump.tokens = std::min(pump.tokens, 1.0);
    pump.last_refill_ns = now;
    if (pump.tokens < 1) {
      // Stay reachable while throttled.
      runtime_->ServiceInbox();
      const double need_s = (1 - pump.tokens) / config_.service_rate_per_worker;
      const auto nap = std::chrono::nanoseconds(
          std::min<std::uint64_t>(static_cast<std::uint64_t>(need_s * 1e9), 100000));
      std::this_thread::sleep_for(nap);
    }
  }
  pump.tokens -= 1;
}

void Service::Drain() {
  while (true) {
    const std::uint64_t done = served() + expired();
    const std::uint64_t in = admitted();
    if (done >= in) {
      return;
    }
    std::this_thread::yield();
  }
}

void Service::AttachLockProfiler(hprof::SiteTable* sites) {
  table_->AttachLockProfiler(sites, "svc.table");
}

void Service::ExportMetrics(hmetrics::Registry* out) const {
  const std::uint32_t per_cluster = config_.topology.cluster_size;
  for (hcluster::ClusterId c = 0; c < num_shards(); ++c) {
    const hmetrics::Labels labels{{"shard", std::to_string(c)}};
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    std::uint64_t served = 0;
    std::uint64_t batches = 0;
    std::uint64_t combined = 0;
    double depth = 0;
    hmetrics::Histogram& wait = out->histogram("svc.wait_us", labels);
    hmetrics::Histogram& service = out->histogram("svc.service_us", labels);
    hmetrics::Histogram& fill = out->histogram("svc.batch_fill", labels);
    for (std::uint32_t i = 0; i < per_cluster; ++i) {
      const Pump& pump = *pumps_[c * per_cluster + i];
      admitted += pump.admitted.load(std::memory_order_relaxed);
      rejected += pump.rejected.load(std::memory_order_relaxed);
      expired += pump.expired.load(std::memory_order_relaxed);
      served += pump.served.load(std::memory_order_relaxed);
      batches += pump.batches.load(std::memory_order_relaxed);
      combined += pump.combined.load(std::memory_order_relaxed);
      depth += static_cast<double>(pump.queue.depth());
      wait.Merge(pump.wait_us);
      service.Merge(pump.service_us);
      fill.Merge(pump.batch_fill);
    }
    out->counter("svc.admitted", labels).Add(admitted);
    out->counter("svc.rejected", labels).Add(rejected);
    out->counter("svc.expired", labels).Add(expired);
    out->counter("svc.served", labels).Add(served);
    out->counter("svc.batches", labels).Add(batches);
    out->counter("svc.combined_gets", labels).Add(combined);
    out->gauge("svc.queue_depth", labels).Set(depth);
  }
  // 1 when the completion free list's head word is genuinely lock-free on
  // this target/build (see lock_free.h).  Not per-shard: the property is a
  // property of the build.
  out->gauge("svc.freelist_lock_free", {})
      .Set(hlock::LockFreeFreeList::kHeadIsAlwaysLockFree ? 1 : 0);
}

}  // namespace hsvc
