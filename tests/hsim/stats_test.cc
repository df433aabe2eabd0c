// hsim::LatencyRecorder, the simulator's exact sample-retaining histogram.
// The suite is named for what the recorder is, a latency histogram.

#include "src/hsim/stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace hsim {
namespace {

TEST(LatencyHistogram, EmptyHistogram) {
  LatencyRecorder h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_DOUBLE_EQ(h.fraction_above(10), 0.0);
}

TEST(LatencyHistogram, SingleSample) {
  LatencyRecorder h;
  h.Record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  // Every percentile of a single sample is that sample.
  EXPECT_EQ(h.percentile(0), 42u);
  EXPECT_EQ(h.percentile(50), 42u);
  EXPECT_EQ(h.percentile(100), 42u);
}

TEST(LatencyHistogram, PercentileEndpoints) {
  LatencyRecorder h;
  for (std::uint64_t v : {10, 20, 30, 40, 50}) {
    h.Record(v);
  }
  EXPECT_EQ(h.percentile(0), 10u);
  EXPECT_EQ(h.percentile(100), 50u);
  // Out-of-range requests clamp instead of reading out of bounds.
  EXPECT_EQ(h.percentile(-5), 10u);
  EXPECT_EQ(h.percentile(250), 50u);
}

TEST(LatencyHistogram, NearestRankRounding) {
  // rank = p/100 * (n-1), rounded half-up: with 5 samples p=50 -> rank 2
  // (exact), p=60 -> rank 2.4 -> 2, p=70 -> rank 2.8 -> 3.
  LatencyRecorder h;
  for (std::uint64_t v : {10, 20, 30, 40, 50}) {
    h.Record(v);
  }
  EXPECT_EQ(h.percentile(50), 30u);
  EXPECT_EQ(h.percentile(60), 30u);
  EXPECT_EQ(h.percentile(70), 40u);
  EXPECT_EQ(h.percentile(95), 50u);
}

TEST(LatencyHistogram, UnsortedInsertOrder) {
  LatencyRecorder h;
  for (std::uint64_t v : {50, 10, 40, 20, 30}) {
    h.Record(v);
  }
  EXPECT_EQ(h.percentile(0), 10u);
  EXPECT_EQ(h.percentile(50), 30u);
  EXPECT_EQ(h.percentile(100), 50u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 50u);
}

TEST(LatencyHistogram, SortCacheInvalidatedByRecord) {
  LatencyRecorder h;
  h.Record(10);
  h.Record(30);
  EXPECT_EQ(h.percentile(100), 30u);  // forces the sort
  h.Record(20);                       // must invalidate the sorted cache
  EXPECT_EQ(h.percentile(50), 20u);
  EXPECT_EQ(h.percentile(100), 30u);
  h.Record(5);
  EXPECT_EQ(h.percentile(0), 5u);
}

TEST(LatencyHistogram, FractionAbove) {
  LatencyRecorder h;
  for (std::uint64_t v = 1; v <= 10; ++v) {
    h.Record(v);
  }
  EXPECT_DOUBLE_EQ(h.fraction_above(10), 0.0);   // strictly above
  EXPECT_DOUBLE_EQ(h.fraction_above(5), 0.5);    // 6..10
  EXPECT_DOUBLE_EQ(h.fraction_above(0), 1.0);
}

TEST(LatencyHistogram, MergeAcrossShards) {
  // Per-shard recording then a merge must agree with one big histogram.
  LatencyRecorder shard1;
  LatencyRecorder shard2;
  LatencyRecorder all;
  for (std::uint64_t v = 0; v < 100; ++v) {
    ((v % 2 == 0) ? shard1 : shard2).Record(v * 7 % 101);
    all.Record(v * 7 % 101);
  }
  LatencyRecorder merged;
  merged.Merge(shard1);
  merged.Merge(shard2);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.sum(), all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  for (double p : {0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.percentile(p), all.percentile(p)) << "p=" << p;
  }
}

TEST(LatencyHistogram, MergeIntoQueriedHistogram) {
  LatencyRecorder a;
  a.Record(1);
  EXPECT_EQ(a.percentile(50), 1u);  // sort the cache
  LatencyRecorder b;
  b.Record(100);
  a.Merge(b);  // must invalidate
  EXPECT_EQ(a.percentile(100), 100u);
  EXPECT_EQ(a.count(), 2u);
}

TEST(LatencyHistogram, StreamingStatsWithoutSort) {
  // mean/min/max/sum are streaming: correct even if percentile is never
  // called (no hidden dependency on the sorted cache).
  LatencyRecorder h;
  h.Record(3);
  h.Record(9);
  h.Record(6);
  EXPECT_EQ(h.sum(), 18u);
  EXPECT_DOUBLE_EQ(h.mean(), 6.0);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 9u);
}

TEST(LatencyHistogram, SumSaturatesInsteadOfWrapping) {
  constexpr std::uint64_t kCeiling = std::numeric_limits<std::uint64_t>::max();
  LatencyRecorder h;
  h.Record(kCeiling - 10);
  EXPECT_FALSE(h.sum_overflowed());
  h.Record(100);  // would wrap modulo 2^64
  EXPECT_EQ(h.sum(), kCeiling);
  EXPECT_TRUE(h.sum_overflowed());
  // The count stays exact; only the sum is a floor from here on.
  h.Record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), kCeiling);
}

TEST(LatencyHistogram, MergePropagatesSaturation) {
  LatencyRecorder overflowed_shard;
  overflowed_shard.Record(std::uint64_t{1} << 63);
  overflowed_shard.Record(std::uint64_t{1} << 63);
  LatencyRecorder total;
  total.Record(5);
  total.Merge(overflowed_shard);
  EXPECT_TRUE(total.sum_overflowed());
  EXPECT_EQ(total.sum(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(total.count(), 3u);
}

}  // namespace
}  // namespace hsim
