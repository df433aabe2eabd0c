// Self-test of the benchmark's percentile routine: p is a percentage in
// [0, 100], ranks are nearest-rank, and a tail percentile of a skewed sample
// lands in the tail (a p99 computed as Percentile(0.99) would land near the
// minimum instead -- the mistake this test exists to catch).

#include <cstdio>
#include <cstdint>
#include <vector>

#include "perfbench/src/common.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<std::uint64_t> OneToHundred() {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) {
    v.push_back(i);  // unsorted on purpose
  }
  return v;
}

}  // namespace

int main() {
  using perfbench::Percentile;
  {
    std::vector<std::uint64_t> v = OneToHundred();
    Expect(Percentile(&v, 0) == 1, "p0 is the minimum");
    Expect(Percentile(&v, 50) == 50, "p50 of 1..100 is 50");
    Expect(Percentile(&v, 99) == 99, "p99 of 1..100 is 99");
    Expect(Percentile(&v, 99.9) == 100, "p99.9 of 1..100 is 100");
    Expect(Percentile(&v, 100) == 100, "p100 is the maximum");
    Expect(Percentile(&v, 0.99) == 1, "p0.99 is the 1st value, not the tail");
  }
  {
    // 990 fast samples and 10 slow ones: p99 is fast, p99.1 is slow.
    std::vector<std::uint64_t> v(990, 10);
    v.insert(v.end(), 10, 5000);
    Expect(Percentile(&v, 99) == 10, "p99 with exactly 1% slow samples");
    Expect(Percentile(&v, 99.1) == 5000, "p99.1 reaches the slow samples");
    Expect(Percentile(&v, 50) == 10, "p50 of a skewed sample");
  }
  {
    std::vector<std::uint64_t> one{42};
    Expect(Percentile(&one, 0) == 42 && Percentile(&one, 99) == 42, "single sample");
    std::vector<std::uint64_t> none;
    Expect(Percentile(&none, 50) == 0, "empty sample reads 0");
  }
  {
    Expect(perfbench::Median({3, 1, 2}) == 2, "odd median");
    Expect(perfbench::Median({4, 1, 3, 2}) == 2.5, "even median");
  }
  if (failures == 0) {
    std::printf("percentile self-test: ok\n");
  }
  return failures == 0 ? 0 : 1;
}
