// Tests for the native cluster runtime: routing, posting, blocking calls,
// cross-call deadlock freedom, and the replicated counter.

#include "src/hcluster/runtime.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "src/hcluster/replicated_counter.h"
#include "src/hcluster/topology.h"

namespace hcluster {
namespace {

TEST(Topology, ClusterAndPeerMath) {
  Topology t{16, 4};
  EXPECT_EQ(t.num_clusters(), 4u);
  EXPECT_EQ(t.cluster_of(0), 0u);
  EXPECT_EQ(t.cluster_of(7), 1u);
  EXPECT_EQ(t.cluster_of(15), 3u);
  EXPECT_EQ(t.peer_of(6, 3), 14u);  // 2nd of cluster 1 -> 2nd of cluster 3
  EXPECT_EQ(t.peer_of(0, 2), 8u);
  Topology odd{10, 4};
  EXPECT_EQ(odd.num_clusters(), 3u);
}

TEST(ClusterRuntime, PostRunsOnTargetWorker) {
  ClusterRuntime rt(Topology{4, 2});
  std::atomic<WorkerId> observed{ClusterRuntime::kNotAWorker};
  std::atomic<bool> done{false};
  rt.Post(3, [&] {
    observed = rt.current_worker();
    done = true;
  });
  while (!done) {
    std::this_thread::yield();
  }
  EXPECT_EQ(observed.load(), 3u);
}

TEST(ClusterRuntime, CallReturnsValueFromTarget) {
  ClusterRuntime rt(Topology{4, 2});
  const int result = rt.Call(2, [] { return 41 + 1; });
  EXPECT_EQ(result, 42);
}

TEST(ClusterRuntime, CallFromWorkerServicesOwnInbox) {
  // Worker 0's process calls worker 1, whose handler calls back into worker
  // 0's inbox... as a *handler post*, which worker 0 services while blocked.
  ClusterRuntime rt(Topology{2, 1});
  std::atomic<bool> done{false};
  std::atomic<bool> nested_ran{false};
  rt.Post(0, [&] {
    const int r = rt.Call(1, [&] {
      // Handler on worker 1: post (not call!) work back to worker 0.
      rt.PostHandler(0, [&] { nested_ran = true; });
      return 7;
    });
    // Wait until worker 0 (us) has run the posted handler: it happens inside
    // our own Call wait loop or right after.
    EXPECT_EQ(r, 7);
    done = true;
  });
  while (!done) {
    std::this_thread::yield();
  }
  while (!nested_ran) {
    std::this_thread::yield();
  }
  SUCCEED();
}

TEST(ClusterRuntime, CallToSelfRunsInline) {
  // A process on worker 0 calls worker 0.  A handler another thread posted
  // to worker 0 beforehand is still pending when fn runs: fn did not go
  // through the inbox (which would have run that handler first, in arrival
  // order) but ran directly on the calling thread.
  ClusterRuntime rt(Topology{2, 1});
  std::atomic<bool> started{false};
  std::atomic<bool> handler_posted{false};
  std::atomic<bool> handler_ran{false};
  std::atomic<bool> done{false};
  bool ran_before_handler = false;
  bool same_thread = false;
  int result = 0;
  rt.Post(0, [&] {
    started = true;
    while (!handler_posted.load()) {
      std::this_thread::yield();  // deaf on purpose: the handler stays queued
    }
    const std::thread::id caller = std::this_thread::get_id();
    result = rt.Call(0, [&] {
      ran_before_handler = !handler_ran.load();
      same_thread = std::this_thread::get_id() == caller;
      return 42;
    });
    done = true;
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  rt.PostHandler(0, [&] { handler_ran = true; });
  handler_posted = true;
  while (!done.load()) {
    std::this_thread::yield();
  }
  EXPECT_EQ(result, 42);
  EXPECT_TRUE(ran_before_handler);
  EXPECT_TRUE(same_thread);
  rt.Quiesce();
  EXPECT_TRUE(handler_ran.load());
}

TEST(ClusterRuntime, CrossCallingProcessesDoNotDeadlock) {
  // Two processes on different workers call each other's workers at the same
  // time; each services its own inbox while waiting (the processor-as-
  // resource rule).
  ClusterRuntime rt(Topology{2, 1});
  std::atomic<int> done{0};
  for (WorkerId w = 0; w < 2; ++w) {
    rt.Post(w, [&rt, w, &done] {
      const int r = rt.Call(1 - w, [w] { return static_cast<int>(w); });
      EXPECT_EQ(r, static_cast<int>(w));
      done.fetch_add(1);
    });
  }
  while (done.load() != 2) {
    std::this_thread::yield();
  }
  SUCCEED();
}

TEST(ClusterRuntime, ManyConcurrentCallsComplete) {
  ClusterRuntime rt(Topology{4, 2});
  std::atomic<int> sum{0};
  std::atomic<int> done{0};
  for (WorkerId w = 0; w < 4; ++w) {
    rt.Post(w, [&rt, w, &sum, &done] {
      for (int i = 0; i < 50; ++i) {
        sum.fetch_add(rt.Call((w + 1) % 4, [i] { return i; }));
      }
      done.fetch_add(1);
    });
  }
  while (done.load() != 4) {
    std::this_thread::yield();
  }
  EXPECT_EQ(sum.load(), 4 * (49 * 50 / 2));
}

TEST(ClusterRuntime, QuiesceWaitsForPostedTasks) {
  ClusterRuntime rt(Topology{4, 2});
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    rt.Post(i % 4, [&ran] { ran.fetch_add(1); });
  }
  rt.Quiesce();
  EXPECT_EQ(ran.load(), 20);
}

TEST(ClusterRuntime, DestroyWithCallsInFlightDrainsEverything) {
  // Destroying the runtime while worker processes are blocked in cross-worker
  // Calls must complete every call, not deadlock or drop queued tasks.  The
  // pre-drain destructor hung here: worker A waited in Call for worker B's
  // reply while B, having observed the stop flag, had already exited without
  // polling its inbox -- so join(A) never returned.
  std::atomic<int> ran{0};
  constexpr int kTasks = 32;
  {
    ClusterRuntime rt(Topology{4, 2});
    for (int i = 0; i < kTasks; ++i) {
      rt.Post(static_cast<WorkerId>(i % 4), [&rt, &ran, i] {
        const int r = rt.Call(static_cast<WorkerId>((i + 1) % 4), [i] { return i; });
        EXPECT_EQ(r, i);
        ran.fetch_add(1);
      });
    }
    // Destroy immediately: most of the calls are still queued or in flight.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ClusterRuntime, DestroyRunsWorkPostedByDrainingWork) {
  // Work posted *by* work that the destructor is draining is itself part of
  // the drain (the conservation counters chase the transitive closure).
  std::atomic<int> ran{0};
  {
    ClusterRuntime rt(Topology{2, 1});
    rt.Post(0, [&rt, &ran] {
      rt.Post(1, [&rt, &ran] {
        rt.PostHandler(0, [&ran] { ran.fetch_add(1); });
        ran.fetch_add(1);
      });
      ran.fetch_add(1);
    });
  }
  EXPECT_EQ(ran.load(), 3);
}

TEST(ReplicatedCounter, LocalAndTotal) {
  Topology t{8, 4};
  ReplicatedCounter counter(t);
  counter.Add(/*worker=*/0, 5);   // cluster 0
  counter.Add(/*worker=*/1, 2);   // cluster 0
  counter.Add(/*worker=*/5, 10);  // cluster 1
  EXPECT_EQ(counter.Local(0), 7);
  EXPECT_EQ(counter.Local(1), 10);
  EXPECT_EQ(counter.Total(), 17);
}

}  // namespace
}  // namespace hcluster
