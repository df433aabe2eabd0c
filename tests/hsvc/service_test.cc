// End-to-end tests of the hsvc serving runtime: routing, deadlines,
// admission control, read combining, metrics and profiler wiring.

#include "src/hsvc/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/hmetrics/json.h"
#include "src/hprof/lock_site.h"

namespace hcluster {

// Test-only access to a replica's coarse lock.
struct ClusteredTableTestPeer {
  template <typename K, typename V, typename H>
  static auto& CoarseLock(ClusteredTable<K, V, H>& table, ClusterId cluster) {
    return table.replicas_[cluster]->table.coarse_lock();
  }
};

}  // namespace hcluster

namespace hsvc {

// Test-only access to a service's runtime and pump queues.
struct ServiceTestPeer {
  static hcluster::ClusterRuntime& Runtime(Service& svc) { return *svc.runtime_; }
  static std::size_t QueueDepth(Service& svc, hcluster::WorkerId worker) {
    return svc.pumps_[worker]->queue.depth();
  }
};

namespace {

// A blocking single-outstanding-request client: submit (retrying rejected
// admissions with the service's own hint) and wait for the completion to
// come back on the free list.
struct SyncClient {
  hlock::LockFreeFreeList done;
  Request req;

  Status Run(Service& svc, OpKind kind, std::uint64_t key, std::uint64_t value,
             hcluster::ClusterId origin) {
    req.completion = &done;
    req.kind = kind;
    req.key = key;
    req.value_in = value;
    req.deadline_ns = 0;  // reuse must not inherit a stale resolved deadline
    while (true) {
      const AdmitResult admit = svc.Submit(&req, origin);
      if (admit.admitted) {
        break;
      }
      ++req.retries;
      std::this_thread::sleep_for(std::chrono::microseconds(admit.retry_after_us));
    }
    hlock::LockFreeNode* node;
    while ((node = done.Pop()) == nullptr) {
      std::this_thread::yield();
    }
    EXPECT_EQ(Request::FromFreeLink(node), &req);
    return req.status;
  }
};

TEST(Service, PutGetRoundtripAcrossClusters) {
  ServiceConfig config;
  config.topology = hcluster::Topology{4, 2};  // 2 clusters of 2
  Service svc(config);
  SyncClient client;

  EXPECT_EQ(client.Run(svc, OpKind::kPut, 10, 77, 0), Status::kOk);
  // Read from the home cluster and from the remote cluster (replication).
  EXPECT_EQ(client.Run(svc, OpKind::kGet, 10, 0, 0), Status::kOk);
  EXPECT_EQ(client.req.value_out, 77u);
  EXPECT_EQ(client.Run(svc, OpKind::kGet, 10, 0, 1), Status::kOk);
  EXPECT_EQ(client.req.value_out, 77u);
  // Overwrite is globally visible (write broadcast reaches the replica).
  EXPECT_EQ(client.Run(svc, OpKind::kPut, 10, 78, 1), Status::kOk);
  EXPECT_EQ(client.Run(svc, OpKind::kGet, 10, 0, 1), Status::kOk);
  EXPECT_EQ(client.req.value_out, 78u);

  EXPECT_EQ(client.Run(svc, OpKind::kGet, 999, 0, 0), Status::kNotFound);
  svc.Drain();
  EXPECT_EQ(svc.served(), 6u);
  EXPECT_EQ(svc.expired(), 0u);
}

TEST(Service, TimestampsAreOrderedOnCompletion) {
  ServiceConfig config;
  config.topology = hcluster::Topology{2, 1};
  Service svc(config);
  SyncClient client;
  ASSERT_EQ(client.Run(svc, OpKind::kPut, 1, 1, 0), Status::kOk);
  EXPECT_GT(client.req.enqueue_ns, 0u);
  EXPECT_GE(client.req.start_ns, client.req.enqueue_ns);
  EXPECT_GE(client.req.done_ns, client.req.start_ns);
}

TEST(Service, PastDeadlineExpiresWithoutExecuting) {
  ServiceConfig config;
  config.topology = hcluster::Topology{2, 1};
  Service svc(config);
  SyncClient client;

  client.req.completion = &client.done;
  client.req.kind = OpKind::kPut;
  client.req.key = 5;
  client.req.value_in = 123;
  client.req.deadline_ns = 1;  // long past
  ASSERT_TRUE(svc.Submit(&client.req, 0).admitted);
  hlock::LockFreeNode* node;
  while ((node = client.done.Pop()) == nullptr) {
    std::this_thread::yield();
  }
  EXPECT_EQ(client.req.status, Status::kExpired);
  svc.Drain();
  EXPECT_EQ(svc.expired(), 1u);
  // The write never touched the table.
  EXPECT_EQ(client.Run(svc, OpKind::kGet, 5, 0, 0), Status::kNotFound);
}

TEST(Service, BacklogBehindSlowServiceExpiresByDeadline) {
  ServiceConfig config;
  config.topology = hcluster::Topology{2, 1};
  config.service_rate_per_worker = 20;       // 50ms per table op
  config.default_deadline_ns = 10'000'000;   // 10ms
  Service svc(config);

  // Five writes to one key land in one pump's queue almost at once.  The
  // first is served from the initial token; by the time the pacer allows the
  // third, its deadline has long passed -- it must expire at dequeue, not
  // consume a token.
  constexpr int kRequests = 5;
  hlock::LockFreeFreeList done;
  std::vector<Request> reqs(kRequests);
  for (auto& req : reqs) {
    req.completion = &done;
    req.kind = OpKind::kPut;
    req.key = 3;
    req.value_in = 1;
    ASSERT_TRUE(svc.Submit(&req, 0).admitted);
  }
  int completed = 0;
  while (completed < kRequests) {
    if (done.Pop() == nullptr) {
      std::this_thread::yield();
    } else {
      ++completed;
    }
  }
  svc.Drain();
  EXPECT_EQ(svc.served() + svc.expired(), static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(svc.expired(), 1u);
  for (const auto& req : reqs) {
    EXPECT_NE(req.status, Status::kPending);
  }
}

TEST(Service, OverloadRejectsWithRetryAfterHint) {
  ServiceConfig config;
  config.topology = hcluster::Topology{2, 1};
  config.queue_bound = 2;
  config.service_rate_per_worker = 20;  // 50ms per op: the pump cannot keep up
  Service svc(config);

  hlock::LockFreeFreeList done;
  constexpr int kBurst = 50;
  std::vector<Request> reqs(kBurst);
  int admitted = 0;
  int rejected = 0;
  std::uint32_t max_hint = 0;
  for (auto& req : reqs) {
    req.completion = &done;
    req.kind = OpKind::kPut;
    req.key = 0;
    req.value_in = 9;
    const AdmitResult admit = svc.Submit(&req, 0);
    if (admit.admitted) {
      ++admitted;
    } else {
      ++rejected;
      EXPECT_GE(admit.retry_after_us, 50u);
      EXPECT_LE(admit.retry_after_us, 100000u);
      max_hint = std::max(max_hint, admit.retry_after_us);
    }
  }
  // The burst is microseconds long and the pump serves one request per 50ms:
  // it can admit at most the initial token + the queue bound + a slot or two
  // freed mid-burst.
  EXPECT_GE(rejected, kBurst / 2);
  EXPECT_GT(max_hint, 0u);
  EXPECT_EQ(svc.rejected(), static_cast<std::uint64_t>(rejected));

  svc.Drain();
  EXPECT_EQ(svc.served() + svc.expired(), static_cast<std::uint64_t>(admitted));
  // Rejected requests are still owned by us and untouched.
  for (const auto& req : reqs) {
    if (req.status == Status::kPending) {
      EXPECT_EQ(req.done_ns, 0u);
    }
  }
}

TEST(Service, SameKeyReadsCombineWithinABatch) {
  ServiceConfig config;
  config.topology = hcluster::Topology{2, 1};
  config.service_rate_per_worker = 20;  // force queueing so a batch can form
  Service svc(config);
  SyncClient writer;
  ASSERT_EQ(writer.Run(svc, OpKind::kPut, 4, 55, 0), Status::kOk);

  constexpr int kReads = 8;
  hlock::LockFreeFreeList done;
  std::vector<Request> reqs(kReads);
  for (auto& req : reqs) {
    req.completion = &done;
    req.kind = OpKind::kGet;
    req.key = 4;
    ASSERT_TRUE(svc.Submit(&req, 0).admitted);
  }
  int completed = 0;
  while (completed < kReads) {
    if (done.Pop() == nullptr) {
      std::this_thread::yield();
    } else {
      ++completed;
    }
  }
  for (const auto& req : reqs) {
    EXPECT_EQ(req.status, Status::kOk);
    EXPECT_EQ(req.value_out, 55u);
  }
  // The paced pump executes at most a couple of these against the table; the
  // rest ride the within-batch cache.
  EXPECT_GE(svc.combined_gets(), static_cast<std::uint64_t>(kReads / 2));
}

TEST(Service, ExportMetricsShapesPerShardSeries) {
  ServiceConfig config;
  config.topology = hcluster::Topology{4, 2};
  Service svc(config);
  SyncClient client;
  ASSERT_EQ(client.Run(svc, OpKind::kPut, 0, 1, 0), Status::kOk);
  ASSERT_EQ(client.Run(svc, OpKind::kPut, 1, 2, 0), Status::kOk);
  ASSERT_EQ(client.Run(svc, OpKind::kGet, 0, 0, 1), Status::kOk);
  svc.Drain();

  hmetrics::Registry registry;
  svc.ExportMetrics(&registry);
  std::uint64_t admitted = 0;
  std::uint64_t served = 0;
  std::uint64_t service_samples = 0;
  double depth = 0;
  for (std::uint32_t shard = 0; shard < svc.num_shards(); ++shard) {
    const hmetrics::Labels labels{{"shard", std::to_string(shard)}};
    admitted += registry.counter("svc.admitted", labels).value();
    served += registry.counter("svc.served", labels).value();
    service_samples += registry.histogram("svc.service_us", labels).count();
    depth += registry.gauge("svc.queue_depth", labels).value();
  }
  EXPECT_EQ(admitted, svc.admitted());
  EXPECT_EQ(served, svc.served());
  EXPECT_EQ(service_samples, svc.served());  // one sample per served request
  EXPECT_EQ(depth, 0.0);                     // drained
  // 7 series kinds x 2 shards for counters/gauge/histograms, plus the
  // service-wide svc.freelist_lock_free gauge (is the completion stack's
  // one-word head genuinely lock-free on this build?  It is.).
  EXPECT_EQ(registry.series_count(), 10u * svc.num_shards() + 1);
  EXPECT_EQ(registry.gauge("svc.freelist_lock_free", {}).value(), 1.0);
}

TEST(Service, ExportedHistogramsCountEveryDequeuedRequest) {
  ServiceConfig config;
  config.topology = hcluster::Topology{2, 1};
  Service svc(config);
  SyncClient client;
  constexpr int kRequests = 300;
  for (int i = 0; i < kRequests; ++i) {
    if (i % 4 == 3) {
      client.req.completion = &client.done;
      client.req.kind = OpKind::kPut;
      client.req.key = static_cast<std::uint64_t>(i);
      client.req.deadline_ns = 1;  // long past: dequeued, then expired
      ASSERT_TRUE(svc.Submit(&client.req, i % 2).admitted);
      while (client.done.Pop() == nullptr) {
        std::this_thread::yield();
      }
      ASSERT_EQ(client.req.status, Status::kExpired);
    } else {
      const OpKind kind = i % 3 == 0 ? OpKind::kPut : OpKind::kGet;
      ASSERT_NE(client.Run(svc, kind, static_cast<std::uint64_t>(i % 7), 1, i % 2),
                Status::kExpired);
    }
  }
  svc.Drain();
  ASSERT_EQ(svc.served() + svc.expired(), static_cast<std::uint64_t>(kRequests));
  ASSERT_GT(svc.expired(), 0u);

  hmetrics::Registry registry;
  svc.ExportMetrics(&registry);
  std::uint64_t service_count = 0;
  std::uint64_t wait_count = 0;
  std::uint64_t fill_sum = 0;
  for (std::uint32_t shard = 0; shard < svc.num_shards(); ++shard) {
    const hmetrics::Labels labels{{"shard", std::to_string(shard)}};
    service_count += registry.histogram("svc.service_us", labels).count();
    wait_count += registry.histogram("svc.wait_us", labels).count();
    fill_sum += registry.histogram("svc.batch_fill", labels).sum();
  }
  EXPECT_EQ(service_count, svc.served());
  EXPECT_EQ(wait_count, svc.served() + svc.expired());
  EXPECT_EQ(fill_sum, svc.served() + svc.expired());  // batch sizes add up

  // Buckets, not a capped sample log: the export has no "dropped" field.
  hmetrics::JsonValue doc;
  std::string error;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(registry.ToJson(), &doc, &error)) << error;
  int histograms = 0;
  for (const hmetrics::JsonValue& series : doc.array) {
    if (series["type"].string_value == "histogram") {
      ++histograms;
      EXPECT_FALSE(series.Has("dropped")) << series["name"].string_value;
      EXPECT_TRUE(series.Has("p99")) << series["name"].string_value;
    }
  }
  EXPECT_EQ(histograms, 3 * static_cast<int>(svc.num_shards()));
}

TEST(Service, LockProfilerSeesShardTraffic) {
  ServiceConfig config;
  config.topology = hcluster::Topology{4, 2};
  Service svc(config);
  hprof::SiteTable sites(1000.0);  // wait/hold recorded in host nanoseconds
  svc.AttachLockProfiler(&sites);
  // Coarse + reserve + chain.reader + chain.writer per replica.
  ASSERT_EQ(sites.size(), 4u * svc.num_shards());

  SyncClient client;
  ASSERT_EQ(client.Run(svc, OpKind::kPut, 2, 11, 0), Status::kOk);
  ASSERT_EQ(client.Run(svc, OpKind::kGet, 2, 0, 1), Status::kOk);  // replicates
  svc.Drain();

  std::uint64_t acquisitions = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    acquisitions += sites.site(i).acquisitions();
  }
  EXPECT_GT(acquisitions, 0u);
}

TEST(Service, ConcurrentClientsConserveEveryAdmission) {
  ServiceConfig config;
  config.topology = hcluster::Topology{4, 2};
  config.queue_bound = 8;
  Service svc(config);

  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 300;
  std::atomic<std::uint64_t> oks{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&svc, &oks, c] {
      SyncClient client;
      std::uint64_t state = 0x9E3779B97F4A7C15ull * (c + 1);
      for (int i = 0; i < kOpsPerClient; ++i) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        const std::uint64_t key = state % 32;
        const OpKind kind = (state >> 8) % 4 == 0 ? OpKind::kPut : OpKind::kGet;
        const hcluster::ClusterId origin = (state >> 16) % 2;
        const Status status = client.Run(svc, kind, key, i, origin);
        ASSERT_TRUE(status == Status::kOk || status == Status::kNotFound);
        if (status == Status::kOk) {
          oks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  svc.Drain();
  EXPECT_EQ(svc.admitted(), static_cast<std::uint64_t>(kClients * kOpsPerClient));
  EXPECT_EQ(svc.served(), svc.admitted());
  EXPECT_EQ(svc.expired(), 0u);
  EXPECT_GT(oks.load(), 0u);
}

TEST(Service, PumpServicesItsInboxBetweenRequestsOfABatch) {
  // One pump.  A probe handler posted to its worker while the pump works on
  // the first request of a four-request batch runs before the second request
  // starts, not after the batch.
  ServiceConfig config;
  config.topology = hcluster::Topology{1, 1};
  config.read_path = hlock::ReadPath::kCoarse;  // a get's lookup takes the coarse lock
  Service svc(config);
  hcluster::ClusterRuntime& runtime = ServiceTestPeer::Runtime(svc);
  auto& coarse = hcluster::ClusteredTableTestPeer::CoarseLock(svc.table(), 0);

  // Park the pump in a handler at the top of its loop, so the whole batch is
  // queued before the pump fills it.
  std::atomic<bool> parked{false};
  std::atomic<bool> resume{false};
  runtime.PostHandler(0, [&] {
    parked = true;
    while (!resume.load()) {
      std::this_thread::yield();
    }
  });
  while (!parked.load()) {
    std::this_thread::yield();
  }
  constexpr int kBatch = 4;
  hlock::LockFreeFreeList done;
  std::vector<Request> reqs(kBatch);
  for (auto& req : reqs) {
    req.completion = &done;
    req.kind = OpKind::kGet;
    req.key = 7;
    ASSERT_TRUE(svc.Submit(&req, 0).admitted);
  }
  // The first request's lookup waits on this lock without polling the inbox.
  coarse.lock();
  resume = true;
  while (ServiceTestPeer::QueueDepth(svc, 0) != 0) {
    std::this_thread::yield();  // until the pump has taken all four
  }
  std::atomic<bool> probed{false};
  std::uint64_t served_at_probe = ~std::uint64_t{0};
  runtime.PostHandler(0, [&] {
    served_at_probe = svc.served();
    probed = true;
  });
  coarse.unlock();

  int completed = 0;
  while (completed < kBatch) {
    if (done.Pop() == nullptr) {
      std::this_thread::yield();
    } else {
      ++completed;
    }
  }
  while (!probed.load()) {
    std::this_thread::yield();
  }
  // Before the first request (0) or between the first and the second (1).
  EXPECT_LE(served_at_probe, 1u);
  for (const auto& req : reqs) {
    EXPECT_EQ(req.status, Status::kNotFound);
  }
}

}  // namespace
}  // namespace hsvc
