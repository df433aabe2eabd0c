// End-to-end: the open-loop runner driving a real Service.  Kept small --
// these run on whatever CI core is available -- but each asserts a structural
// invariant, not a performance number.

#include "src/hload/open_loop.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace hload {
namespace {

// Every planned op must reach exactly one terminal fate, and every fate must
// have been recorded for latency (the CO-safety bookkeeping contract).
void ExpectConservation(const RunnerResult& r) {
  EXPECT_EQ(r.issued + r.pool_exhausted, r.planned);
  EXPECT_EQ(r.ok + r.notfound + r.expired + r.rejected_final + r.abandoned, r.issued);
  EXPECT_EQ(r.latency.count(), r.planned);
}

// Service-side counters must agree with the runner's view once every pump is
// done with its requests.
void ExpectServiceAgrees(hsvc::Service& service, const RunnerResult& result) {
  service.Drain();
  EXPECT_EQ(service.served() + service.expired(),
            result.ok + result.notfound + result.expired);
  EXPECT_EQ(service.expired(), result.expired);
}

TEST(LoadRunner, UnderCapacityEverythingCompletes) {
  hsvc::ServiceConfig service_config;
  service_config.topology = hcluster::Topology{2, 1};
  hsvc::Service service(service_config);  // unpaced: capacity >> offered

  RunnerConfig config;
  config.workload.seed = 7;
  config.workload.num_clusters = 2;
  config.workload.keys_per_cluster = 32;
  config.workload.read_fraction = 0.8;
  config.rate_per_cluster = 500;
  config.ops_per_cluster = 200;
  const RunnerResult result = LoadRunner(&service, config).Run();

  ExpectConservation(result);
  EXPECT_EQ(result.planned, 400u);
  EXPECT_EQ(result.ok + result.notfound, result.planned);
  EXPECT_EQ(result.rejected_submits, 0u);
  EXPECT_EQ(result.expired, 0u);
  EXPECT_EQ(result.pool_exhausted, 0u);
  EXPECT_GT(result.window_ns, 0u);
  // Open loop at 500/s per cluster: achieved tracks offered when the service
  // keeps up.  Wide tolerance: this asserts "kept up", not a benchmark.
  EXPECT_GT(result.achieved_rps(), result.offered_rps() * 0.5);
  ExpectServiceAgrees(service, result);
}

TEST(LoadRunner, OverloadRejectsFinitelyAndKeepsAccounts) {
  hsvc::ServiceConfig service_config;
  service_config.topology = hcluster::Topology{1, 1};
  service_config.service_rate_per_worker = 200;  // hard capacity: 200 ops/s
  service_config.queue_bound = 4;
  hsvc::Service service(service_config);

  RunnerConfig config;
  config.workload.seed = 11;
  config.workload.num_clusters = 1;
  config.workload.keys_per_cluster = 16;
  config.rate_per_cluster = 2000;  // 10x overload
  config.ops_per_cluster = 600;
  config.max_retries = 2;
  const RunnerResult result = LoadRunner(&service, config).Run();

  ExpectConservation(result);
  // Admission control did its job: the door said no, repeatedly...
  EXPECT_GT(result.rejected_submits, 0u);
  EXPECT_GT(result.rejected_final + result.abandoned, 0u);
  // ...and what was admitted was served: the service never built a backlog
  // beyond its bound, so *something* completed despite 10x overload.
  EXPECT_GT(result.ok + result.notfound, 0u);
  EXPECT_EQ(service.rejected(), result.rejected_submits);
}

TEST(LoadRunner, DeadlinesPropagateToExpiry) {
  hsvc::ServiceConfig service_config;
  service_config.topology = hcluster::Topology{1, 1};
  hsvc::Service service(service_config);

  RunnerConfig config;
  config.workload.seed = 13;
  config.workload.num_clusters = 1;
  config.workload.keys_per_cluster = 8;
  config.rate_per_cluster = 2000;
  config.ops_per_cluster = 100;
  config.deadline_ns = 1;  // expires 1ns after the scheduled instant
  const RunnerResult result = LoadRunner(&service, config).Run();

  ExpectConservation(result);
  EXPECT_EQ(result.expired, result.issued);
  EXPECT_EQ(result.ok + result.notfound, 0u);
}

TEST(LoadRunner, PoolExhaustionIsCountedNotHidden) {
  hsvc::ServiceConfig service_config;
  service_config.topology = hcluster::Topology{1, 1};
  service_config.service_rate_per_worker = 50;  // 20ms per op
  hsvc::Service service(service_config);

  RunnerConfig config;
  config.workload.seed = 17;
  config.workload.num_clusters = 1;
  config.workload.keys_per_cluster = 8;
  config.rate_per_cluster = 1000;
  config.ops_per_cluster = 100;
  config.pool_size = 1;  // one outstanding request: exhausts immediately
  config.max_retries = 0;
  const RunnerResult result = LoadRunner(&service, config).Run();

  ExpectConservation(result);
  EXPECT_GT(result.pool_exhausted, 0u);
}

}  // namespace
}  // namespace hload
