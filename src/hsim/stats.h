// Latency recording for the experiment harnesses.
//
// LatencyRecorder is the simulator's exact histogram: it keeps every sample,
// because simulated results compare raw samples one by one (the kernel
// workload and lock-stress tests) and the stack benchmark reads them.  A
// simulated run is bounded by its parameters, so retention is too.  Host-time
// and unbounded series use hmetrics::Histogram instead.
//
// Percentiles are exact nearest-rank: rank = p/100 * (n-1), rounded half-up
// (hmetrics::Histogram uses the same rule).  The sorted view is built once,
// lazily, and invalidated on insert, so a burst of percentile/fraction
// queries after a run costs one sort.  Sum, min and max are streaming.
// Samples are simulator ticks; the _us accessors convert at the 16 MHz
// HECTOR clock.

#ifndef HSIM_STATS_H_
#define HSIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/hsim/types.h"

namespace hsim {

class LatencyRecorder {
 public:
  using Sample = std::uint64_t;

  void Record(Sample v) {
    ++count_;
    AddSaturating(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    samples_.push_back(v);
    sorted_valid_ = false;
  }

  // Folds `other`'s samples into this recorder (shard aggregation).
  void Merge(const LatencyRecorder& other) {
    if (other.count_ == 0) {
      return;
    }
    count_ += other.count_;
    AddSaturating(other.sum_);
    if (other.sum_overflowed_) {
      SaturateSum();
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_valid_ = false;
  }

  // True once the streaming sum hit the uint64 ceiling: sum()/mean() are
  // floors from then on, never wrapped-around garbage.
  bool sum_overflowed() const { return sum_overflowed_; }

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  Sample max() const { return count_ == 0 ? 0 : max_; }
  Sample min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t sum() const { return sum_; }

  // p is clamped to [0, 100]; 0 when empty.
  Sample percentile(double p) const {
    if (samples_.empty()) {
      return 0;
    }
    p = std::min(std::max(p, 0.0), 100.0);
    EnsureSorted();
    const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
    return sorted_[static_cast<std::size_t>(rank + 0.5)];
  }

  // Fraction of samples strictly above `threshold`: O(log n) after the sort.
  double fraction_above(Sample threshold) const {
    if (samples_.empty()) {
      return 0.0;
    }
    EnsureSorted();
    const auto first_above = std::upper_bound(sorted_.begin(), sorted_.end(), threshold);
    return static_cast<double>(sorted_.end() - first_above) /
           static_cast<double>(sorted_.size());
  }

  const std::vector<Sample>& samples() const { return samples_; }

  double mean_us() const { return mean() / static_cast<double>(kCyclesPerMicrosecond); }
  double percentile_us(double p) const { return TicksToUs(percentile(p)); }

 private:
  void AddSaturating(std::uint64_t v) {
    if (__builtin_add_overflow(sum_, v, &sum_)) {
      SaturateSum();
    }
  }
  void SaturateSum() {
    sum_ = std::numeric_limits<std::uint64_t>::max();
    sum_overflowed_ = true;
  }

  void EnsureSorted() const {
    if (!sorted_valid_) {
      sorted_ = samples_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_valid_ = true;
    }
  }

  std::vector<Sample> samples_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  bool sum_overflowed_ = false;
  Sample min_ = std::numeric_limits<Sample>::max();
  Sample max_ = 0;
  // Query-side cache: mutable so const statistics queries can build it.
  mutable std::vector<Sample> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace hsim

#endif  // HSIM_STATS_H_
