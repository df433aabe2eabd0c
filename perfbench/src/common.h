// Shared pieces of the stack benchmark: the seeded input generator, the
// percentile routine, the host clock, the result record every workload fills,
// and the in-memory span recorder used by traced runs.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- inputs -------------------------------------------------------------------

// splitmix64: small, fast and fully determined by its seed.  The benchmark
// owns its generator so the inputs do not move when a library's RNG changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

// Mixes a run seed with a stream id so each client and phase draws from its
// own reproducible stream.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

// Zipfian ranks in [0, n) (Gray et al.'s method, theta < 1): rank k has
// probability proportional to 1 / (k+1)^theta.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);
  std::uint64_t Next(Rng* rng) const;

 private:
  std::uint64_t n_;
  double zeta_n_;
  double alpha_;
  double eta_;
  double half_pow_theta_;
};

// --- statistics ---------------------------------------------------------------

// Nearest-rank percentile of `values` for p in [0, 100]: the smallest value
// with at least p% of the samples at or below it (p = 0 gives the minimum).
// Sorts `values` in place.  Returns 0 for an empty vector; p outside
// [0, 100] is a caller bug and aborts.
std::uint64_t Percentile(std::vector<std::uint64_t>* values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<std::uint64_t>& values);

// --- host --------------------------------------------------------------------

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}
// CPU time the calling thread has run, in ns: unlike wall time it leaves out
// the time the host ran something else on this CPU.
std::uint64_t ThreadCpuNs();
// CPU time all threads of the process have run, in ns.
std::uint64_t ProcessCpuNs();
double PeakRssMb();
unsigned UsableCpus();

// --- results ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run reports.  `correct` is false when an output check
// failed; `problems` says which.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

// The command line; main() requires every flag but --trace-out.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  double svc_rate = 0;  // svc open-loop offered ops/s, all clients together
};

// Every per-layer metric name with its unit.  A traced run reports each one;
// metrics of layers the workload does not run read 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics();

// --- tracing ------------------------------------------------------------------

// One timed interval at a layer boundary.  Spans of one request share `id`;
// `parent` names the span that caused this one (0 = none).
struct Span {
  std::uint32_t name = 0;
  std::uint32_t thread = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Per-thread span buffer with a fixed capacity: recording never allocates
// after construction, and spans past the capacity are counted, not kept.
class SpanBuffer {
 public:
  SpanBuffer(std::uint32_t thread, std::size_t capacity) : thread_(thread) {
    spans_.reserve(capacity);
  }
  void Add(std::uint32_t name, std::uint64_t id, std::uint64_t parent, std::uint64_t start,
           std::uint64_t end) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(Span{name, thread_, id, parent, start, end});
    } else {
      ++dropped_;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Span names, in the order they appear in the trace file's name table.
enum SpanName : std::uint32_t {
  kSpanRequest,     // client view of one request: due -> completion popped
  kSpanAlloc,       // halloc::SlabAllocator::Alloc
  kSpanFree,        // halloc::SlabAllocator::Free
  kSpanSubmit,      // hsvc::Service::Submit
  kSpanPop,         // completion LockFreeFreeList::Pop that returned a node
  kSpanMcsH2Block,  // replay: a block of McsH2Lock lock/unlock pairs
  kSpanTasBlock,    // replay: a block of TasSpinLock lock/unlock pairs
  kSpanPeekBlock,   // replay: a block of HybridTable::Peek
  kSpanReserveBlock,  // replay: a block of HybridTable::Acquire + Release
  kSpanRunUntil,    // hsim::Engine::RunUntil / RunUntilIdle
  kSpanNameCount,
};
const char* SpanNameText(std::uint32_t name);

// Collects every thread's spans plus named counters read at the same
// boundaries, and writes them as one JSON document at the end of the run.
class TraceLog {
 public:
  void Adopt(const SpanBuffer& buffer);
  void Counter(const std::string& name, double value) { counters_[name] = value; }
  // Mean duration of the spans named `name`, in ns.
  double MeanNs(std::uint32_t name) const;
  bool WriteJson(const std::string& path, const std::string& fingerprint_json) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, double> counters_;
};

// Cost of an empty span (one clock read), subtracted from short spans so
// their reported self time is the call's own.
double EmptySpanNs();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
