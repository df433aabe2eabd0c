// hmetrics::Histogram: the bounded log-linear histogram.  Fixed examples
// first, then a seeded property test against the exact nearest-rank
// percentile of the same samples.

#include "src/hmetrics/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

namespace hmetrics {
namespace {

static_assert(std::is_trivially_copyable_v<Histogram>,
              "a Histogram is a fixed bucket array and never owns heap memory");

TEST(Histogram, EmptyRecorder) {
  Histogram r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.sum(), 0u);
  EXPECT_EQ(r.min(), 0u);
  EXPECT_EQ(r.max(), 0u);
  EXPECT_DOUBLE_EQ(r.mean(), 0.0);
  EXPECT_EQ(r.percentile(99), 0u);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram r;
  for (std::uint64_t v : {0, 1, 5, 31}) {
    r.Record(v);
  }
  EXPECT_EQ(r.count(), 4u);
  EXPECT_EQ(r.min(), 0u);
  EXPECT_EQ(r.max(), 31u);
  EXPECT_EQ(r.percentile(0), 0u);
  EXPECT_EQ(r.percentile(40), 1u);  // rank round(0.4 * 3) = 1
  EXPECT_EQ(r.percentile(60), 5u);  // rank round(0.6 * 3) = 2
  EXPECT_EQ(r.percentile(100), 31u);
}

TEST(Histogram, PercentilesWithinBucketError) {
  // 1..1000000 uniformly: percentile p should land near p% of the range
  // within the 1/32 relative bucket error (plus the uniform-grid error).
  Histogram r;
  for (std::uint64_t v = 1; v <= 1000000; ++v) {
    r.Record(v);
  }
  EXPECT_EQ(r.count(), 1000000u);
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double expected = p / 100.0 * 1000000.0;
    const double got = static_cast<double>(r.percentile(p));
    EXPECT_NEAR(got, expected, expected * 0.05) << "p=" << p;
  }
  EXPECT_EQ(r.sum(), 1000000ull * 1000001ull / 2);
}

TEST(Histogram, RecordAsOfBackfillsElapsedLowerBound) {
  Histogram r;
  r.RecordAsOf(1000, 5000);  // scheduled at 1000, window closed at 5000
  r.RecordAsOf(7000, 5000);  // scheduled after close: clamps to zero
  EXPECT_EQ(r.count(), 2u);
  EXPECT_EQ(r.min(), 0u);
  EXPECT_EQ(r.max(), 4000u);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a;
  Histogram b;
  Histogram all;
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    ((v % 2 == 0) ? a : b).Record(v * 17 % 90001);
    all.Record(v * 17 % 90001);
  }
  Histogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.sum(), all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  for (double p : {1.0, 50.0, 99.0, 99.9}) {
    EXPECT_EQ(merged.percentile(p), all.percentile(p)) << "p=" << p;
  }
}

TEST(Histogram, HugeValuesDoNotOverflowIndexing) {
  Histogram r;
  r.Record(~std::uint64_t{0});
  r.Record(std::uint64_t{1} << 62);
  r.Record(std::uint64_t{1} << 62);
  EXPECT_EQ(r.count(), 3u);
  EXPECT_EQ(r.max(), ~std::uint64_t{0});
  EXPECT_EQ(r.percentile(100), ~std::uint64_t{0});
  // The middle rank answers 2^62's bucket midpoint, half a bucket above it.
  EXPECT_EQ(r.percentile(50), (std::uint64_t{1} << 62) + (std::uint64_t{1} << 56));
}

TEST(Histogram, SumSaturatesAndMergePropagates) {
  constexpr std::uint64_t kCeiling = std::numeric_limits<std::uint64_t>::max();
  Histogram a;
  a.Record(kCeiling - 10);
  EXPECT_FALSE(a.sum_overflowed());
  a.Record(100);  // would wrap modulo 2^64
  EXPECT_EQ(a.sum(), kCeiling);
  EXPECT_TRUE(a.sum_overflowed());
  EXPECT_EQ(a.count(), 2u);  // the count stays exact
  // Merging a saturated shard pins the destination's sum at the ceiling too.
  Histogram total;
  total.Record(5);
  total.Merge(a);
  EXPECT_TRUE(total.sum_overflowed());
  EXPECT_EQ(total.sum(), kCeiling);
  EXPECT_EQ(total.count(), 3u);
}

TEST(Histogram, PercentilesStayWithinMinAndMax) {
  // 1001 and 1015 sit in buckets whose midpoints are 1000 and 1016: the
  // answer is clamped into [min, max] instead of escaping the samples.
  Histogram lone;
  lone.Record(1001);
  EXPECT_EQ(lone.percentile(50), 1001u);
  Histogram three;
  for (int i = 0; i < 3; ++i) {
    three.Record(1001);
  }
  EXPECT_EQ(three.percentile(50), 1001u);  // a middle rank, not an endpoint
  Histogram top;
  top.Record(1015);
  EXPECT_EQ(top.percentile(100), 1015u);
}

TEST(Histogram, RankRuleMatchesTheExactRecorder) {
  // rank = p/100 * (n-1), rounded half-up, 0-based: on two samples p50 is
  // rank 1 (the larger) and p49 rank 0.
  Histogram h;
  h.Record(10);
  h.Record(20);
  EXPECT_EQ(h.percentile(49), 10u);
  EXPECT_EQ(h.percentile(50), 20u);
}

// --- property test -----------------------------------------------------------

// The exact nearest-rank percentile (hsim::LatencyRecorder's rule) of `sorted`.
std::uint64_t ExactPercentile(const std::vector<std::uint64_t>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

std::vector<std::uint64_t> Draw(const std::string& shape, std::size_t n, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = unit(*rng);
    double v;
    if (shape == "uniform") {
      v = u * 2e6;
    } else if (shape == "zipf") {
      // Pareto-shaped: most values small, a heavy tail reaching ~1e9.
      v = 10.0 / std::pow(1.0 - u + 1e-8, 1.2);
    } else {  // bimodal: a fast mode near 40 and a slow mode near 3e6
      v = unit(*rng) < 0.9 ? 40.0 + u * 20.0 : 3e6 + u * 1e5;
    }
    out.push_back(static_cast<std::uint64_t>(v));
  }
  return out;
}

TEST(Histogram, PropertyPercentilesWithinOneBucketOfExact) {
  std::mt19937_64 rng(20261018);
  for (const std::string shape : {"uniform", "zipf", "bimodal"}) {
    for (std::size_t n : {1u, 2u, 3u, 31u, 1000u, 50000u}) {
      const std::vector<std::uint64_t> samples = Draw(shape, n, &rng);
      Histogram all;
      Histogram a;
      Histogram b;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        all.Record(samples[i]);
        (i % 3 == 0 ? a : b).Record(samples[i]);
      }
      std::vector<std::uint64_t> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      std::uint64_t sum = 0;
      for (std::uint64_t v : sorted) {
        sum += v;
      }
      const std::string where = shape + " n=" + std::to_string(n);
      EXPECT_EQ(all.count(), n) << where;
      EXPECT_EQ(all.sum(), sum) << where;
      EXPECT_EQ(all.min(), sorted.front()) << where;
      EXPECT_EQ(all.max(), sorted.back()) << where;

      Histogram merged = a;
      merged.Merge(b);
      EXPECT_EQ(merged.count(), all.count()) << where;
      EXPECT_EQ(merged.sum(), all.sum()) << where;
      EXPECT_EQ(merged.min(), all.min()) << where;
      EXPECT_EQ(merged.max(), all.max()) << where;

      for (double p : {0.0, 1.0, 10.0, 25.0, 49.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
        const std::uint64_t exact = ExactPercentile(sorted, p);
        const std::uint64_t got = all.percentile(p);
        EXPECT_EQ(merged.percentile(p), got) << where << " p=" << p;
        if (exact < 32) {
          EXPECT_EQ(got, exact) << where << " p=" << p;
        } else {
          // A bucket spans at most 1/32 of its values, and the answer is
          // the exact sample's bucket midpoint, at most half a bucket off.
          const std::uint64_t err = got > exact ? got - exact : exact - got;
          EXPECT_LE(err, exact / 64) << where << " p=" << p << " exact=" << exact;
        }
        EXPECT_GE(got, all.min()) << where << " p=" << p;
        EXPECT_LE(got, all.max()) << where << " p=" << p;
      }
    }
  }
}

}  // namespace
}  // namespace hmetrics
