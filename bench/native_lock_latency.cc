// Native (std::atomic) lock benchmarks on the host machine: the uncontended
// acquire/release cost of every lock in hlock, and small contended runs.
//
// This is the modern-hardware counterpart of Section 4.1.1: the H1/H2
// modifications shave loads and branches off the MCS fast path, which is
// visible (if less dramatic) even with cache-based atomics -- exactly the
// paper's Section 5.2 prediction that "reducing the number of atomic
// operations will likely remain beneficial".
//
// NOTE: contended results on a single-core host measure scheduler behaviour
// more than lock behaviour; the simulator benches carry the paper's
// contention results.

#include <benchmark/benchmark.h>

#include "bench/gbench_report.h"
#include "src/hlock/mcs_locks.h"
#include "src/hlock/mcs_try_lock.h"
#include "src/hlock/spin_locks.h"

namespace {

template <typename Lock>
void BM_Uncontended(benchmark::State& state) {
  Lock lock;
  for (auto _ : state) {
    lock.lock();
    benchmark::DoNotOptimize(&lock);
    lock.unlock();
  }
}

void BM_UncontendedClassicMcs(benchmark::State& state) {
  hlock::McsLock lock;
  hlock::McsLock::QNode node;
  for (auto _ : state) {
    lock.lock(node);
    benchmark::DoNotOptimize(&lock);
    lock.unlock(node);
  }
}

template <typename Lock>
void BM_Contended(benchmark::State& state) {
  static Lock lock;
  static std::int64_t counter = 0;
  for (auto _ : state) {
    lock.lock();
    counter = counter + 1;
    benchmark::DoNotOptimize(counter);
    lock.unlock();
  }
}

}  // namespace

BENCHMARK(BM_Uncontended<hlock::TasSpinLock>)->Name("uncontended/tas");
BENCHMARK(BM_Uncontended<hlock::TtasSpinLock>)->Name("uncontended/ttas");
BENCHMARK(BM_Uncontended<hlock::BackoffSpinLock>)->Name("uncontended/backoff");
BENCHMARK(BM_UncontendedClassicMcs)->Name("uncontended/mcs_classic");
BENCHMARK(BM_Uncontended<hlock::McsH1Lock>)->Name("uncontended/mcs_h1");
BENCHMARK(BM_Uncontended<hlock::McsH2Lock>)->Name("uncontended/mcs_h2");
BENCHMARK(BM_Uncontended<hlock::McsTryV1Lock>)->Name("uncontended/mcs_try_v1");
BENCHMARK(BM_Uncontended<hlock::McsTryV2Lock>)->Name("uncontended/mcs_try_v2");

BENCHMARK(BM_Contended<hlock::TtasSpinLock>)->Name("contended/ttas")->Threads(2);
BENCHMARK(BM_Contended<hlock::McsH2Lock>)->Name("contended/mcs_h2")->Threads(2);

int main(int argc, char** argv) {
  return hbench::RunGoogleBench(argc, argv, "native_lock_latency");
}
