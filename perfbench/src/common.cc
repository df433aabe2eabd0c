#include "perfbench/src/common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD6E8FEB86659FD93ull));
  return mix.Next();
}

Zipf::Zipf(std::uint64_t n, double theta) : n_(n) {
  double zeta_n = 0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    zeta_n += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zeta_n_ = zeta_n;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zeta_n);
  half_pow_theta_ = std::pow(0.5, theta);
}

std::uint64_t Zipf::Next(Rng* rng) const {
  const double u = rng->Uniform();
  const double uz = u * zeta_n_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + half_pow_theta_) {
    return 1;
  }
  const auto rank = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                               std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

std::uint64_t Percentile(std::vector<std::uint64_t>* values, double p) {
  if (!(p >= 0.0 && p <= 100.0)) {
    std::fprintf(stderr, "perfbench: percentile %g outside [0, 100]\n", p);
    std::abort();
  }
  if (values->empty()) {
    return 0;
  }
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<std::uint64_t>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (std::uint64_t v : values) {
    sum += static_cast<double>(v);
  }
  return sum / static_cast<double>(values.size());
}

namespace {
std::uint64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"svc.p50_us", "us"},               {"svc.p99_us", "us"},
      {"client.send_lag_us", "us"},       {"client.closed_queue_frac", "ratio"},
      {"halloc.alloc_ns", "ns"},          {"halloc.free_ns", "ns"},
      {"halloc.fast_frac", "ratio"},      {"svc.submit_ns", "ns"},
      {"svc.service_ns", "ns"},           {"svc.queue_wait_p50_us", "us"},
      {"svc.queue_wait_p99_us", "us"},    {"svc.reply_us", "us"},
      {"svc.admit_frac", "ratio"},        {"svc.combined_frac", "ratio"},
      {"svc.batch_fill", "count"},        {"cluster.retry_per_op", "ratio"},
      {"cluster.replications", "count"},  {"cluster.put_us", "us"},
      {"cluster.local_hit_frac", "ratio"}, {"lock.mcs_h2_pair_ns", "ns"},
      {"lock.tas_pair_ns", "ns"},         {"lock.mcs_h2_tas_ratio", "ratio"},
      {"table.peek_ns", "ns"},            {"table.reserve_pair_ns", "ns"},
      {"sim.mean_latency_us", "us"},      {"sim.p99_us", "us"},
      {"sim.events", "count"},            {"sim.host_ns_per_event", "ns"},
      {"kernel.rpcs_per_fault", "ratio"}, {"kernel.would_deadlock_frac", "ratio"},
      {"kernel.lock_overhead_us", "us"},  {"kernel.ring_wait_us", "us"},
      {"kernel.mem_wait_us", "us"},       {"mesh.local_read_frac", "ratio"},
      {"mesh.update_amp", "ratio"},       {"mesh.rpcs_per_op", "ratio"},
      {"mesh.retransmits", "count"},      {"trace.capacity_ratio", "ratio"},
      {"fail_frac", "ratio"},
  };
  return kMetrics;
}

const char* SpanNameText(std::uint32_t name) {
  static const char* const kNames[kSpanNameCount] = {
      "request",          "halloc.alloc",    "halloc.free",       "svc.submit",
      "svc.pop",          "lock.mcs_h2.block", "lock.tas.block",  "table.peek.block",
      "table.reserve.block", "sim.run_until",
  };
  return name < kSpanNameCount ? kNames[name] : "?";
}

void TraceLog::Adopt(const SpanBuffer& buffer) {
  spans_.insert(spans_.end(), buffer.spans().begin(), buffer.spans().end());
  dropped_ += buffer.dropped();
}

double TraceLog::MeanNs(std::uint32_t name) const {
  double sum = 0;
  std::uint64_t n = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      sum += static_cast<double>(s.end_ns - s.start_ns);
      ++n;
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

bool TraceLog::WriteJson(const std::string& path, const std::string& fingerprint_json) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"fingerprint\":" << fingerprint_json << ",\"span_names\":[";
  for (std::uint32_t i = 0; i < kSpanNameCount; ++i) {
    out << (i == 0 ? "" : ",") << '"' << SpanNameText(i) << '"';
  }
  out << "],\"dropped_spans\":" << dropped_ << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ",") << '"' << name << "\":" << value;
    first = false;
  }
  // Spans as compact rows: [name, thread, id, parent, start_ns, end_ns].
  out << "},\"spans\":[";
  first = true;
  for (const Span& s : spans_) {
    out << (first ? "" : ",") << '[' << s.name << ',' << s.thread << ',' << s.id << ','
        << s.parent << ',' << s.start_ns << ',' << s.end_ns << ']';
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double EmptySpanNs() {
  // An empty span's duration is the cost of one clock read (clock_gettime
  // through the vDSO, which the compiler cannot elide).
  std::vector<double> blocks;
  for (int b = 0; b < 9; ++b) {
    constexpr int kReads = 4096;
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kReads; ++i) {
      NowNs();
    }
    const std::uint64_t t1 = NowNs();
    blocks.push_back(static_cast<double>(t1 - t0) / kReads);
  }
  return Median(blocks);
}

}  // namespace perfbench
