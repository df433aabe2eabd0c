// Bounded log-linear histogram: the one histogram for host-time series and
// for every series that records without bound.
//
// Values are unsigned 64-bit and unit-free (nanoseconds, microseconds,
// simulator ticks or counts).  Buckets are exact in [0, 32) and split every
// power of two above into 32 sub-buckets, so a percentile lies within one
// bucket -- 1/32 of the value, about 3% -- of the exact order statistic,
// which is far below run-to-run noise at p999.  count, sum, min, max and
// mean are exact.  The histogram is a fixed-size array (about 15 KiB): it
// never allocates and never keeps samples, so a tail percentile after a
// million records describes all of them, not a retained prefix, and Merge()
// of per-thread or per-pump shards is a bucket-wise sum.
//
// Percentiles use the nearest-rank rule of hsim::LatencyRecorder, the exact
// sample-retaining recorder the simulator keeps for results whose raw samples
// are part of a contract: rank = p/100 * (n-1), rounded half-up, 0-based.
// The answer is the midpoint of the rank's bucket clamped to [min, max], and
// ranks 0 and n-1 answer min and max exactly.
//
// RecordAsOf is the coordinated-omission backfill of open-loop load
// generation (Tene): latency is measured from an op's *scheduled* arrival,
// and an op still incomplete when the window closes records the latency it
// had already accrued, so a slow service cannot hide its worst ops by not
// finishing them.

#ifndef HMETRICS_HISTOGRAM_H_
#define HMETRICS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "src/hmetrics/json.h"

namespace hmetrics {

class Histogram {
 public:
  void Record(std::uint64_t v) {
    ++buckets_[Index(v)];
    min_ = count_ == 0 ? v : std::min(min_, v);
    max_ = std::max(max_, v);
    ++count_;
    AddSaturating(v);
  }

  // Backfill for an op scheduled at `scheduled` and still incomplete when the
  // window closed at `as_of`: its latency is *at least* the elapsed time, so
  // record that lower bound instead of dropping the op.
  void RecordAsOf(std::uint64_t scheduled, std::uint64_t as_of) {
    Record(as_of > scheduled ? as_of - scheduled : 0);
  }

  void Merge(const Histogram& other) {
    if (other.count_ == 0) {
      return;
    }
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    AddSaturating(other.sum_);
    if (other.sum_overflowed_) {
      SaturateSum();
    }
  }

  void Reset() { *this = Histogram(); }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  // True once the sum saturated at the uint64 ceiling: sum() and mean() are
  // floors from then on, never wrapped-around garbage.
  bool sum_overflowed() const { return sum_overflowed_; }
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Nearest-rank percentile, p clamped to [0, 100]; 0 when empty.
  std::uint64_t percentile(double p) const {
    if (count_ == 0) {
      return 0;
    }
    p = std::clamp(p, 0.0, 100.0);
    const auto rank =
        static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_ - 1) + 0.5);
    if (rank == 0) {
      return min_;
    }
    if (rank >= count_ - 1) {
      return max_;
    }
    // The buckets sum to count_ > rank, so the walk stops inside the array.
    std::size_t i = 0;
    for (std::uint64_t seen = buckets_[0]; seen <= rank; seen += buckets_[++i]) {
    }
    return std::clamp(Midpoint(i), min_, max_);
  }

 private:
  // [0, 32) exact, then 32 sub-buckets per power of two.
  static constexpr unsigned kSubBits = 5;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  static std::size_t Index(std::uint64_t v) {
    if (v < kSub) {
      return static_cast<std::size_t>(v);
    }
    const unsigned major = static_cast<unsigned>(std::bit_width(v)) - 1;  // >= kSubBits
    const std::size_t sub = static_cast<std::size_t>((v >> (major - kSubBits)) & (kSub - 1));
    return kSub + (major - kSubBits) * kSub + sub;
  }

  static std::uint64_t Midpoint(std::size_t index) {
    if (index < kSub) {
      return index;
    }
    const unsigned major = kSubBits + static_cast<unsigned>((index - kSub) / kSub);
    const std::uint64_t sub = (index - kSub) % kSub;
    const std::uint64_t lower = (std::uint64_t{1} << major) + (sub << (major - kSubBits));
    return lower + (std::uint64_t{1} << (major - kSubBits)) / 2;
  }

  void AddSaturating(std::uint64_t v) {
    if (__builtin_add_overflow(sum_, v, &sum_)) {
      SaturateSum();
    }
  }
  void SaturateSum() {
    sum_ = std::numeric_limits<std::uint64_t>::max();
    sum_overflowed_ = true;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  bool sum_overflowed_ = false;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// Writes `h`'s summary -- count, sum, min, max, mean, p50, p95, p99, in that
// order -- as fields of the JSON object open in `w`.  Registry series, hprof
// lock sites and hflight phases all export this shape; hprof's report reads
// it back, and hwhy reads the flight documents that carry it.
inline void WriteSummary(JsonWriter* w, const Histogram& h) {
  w->Field("count", h.count());
  w->Field("sum", h.sum());
  w->Field("min", h.min());
  w->Field("max", h.max());
  w->Field("mean", h.mean());
  w->Field("p50", h.percentile(50));
  w->Field("p95", h.percentile(95));
  w->Field("p99", h.percentile(99));
}

}  // namespace hmetrics

#endif  // HMETRICS_HISTOGRAM_H_
