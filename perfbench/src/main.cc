// perfbench: one benchmark for the whole stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --rate OPS
//             [--trace-out PATH] [--source-id ID]
//
// Prints a host fingerprint line, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set; with --trace 1 they are the per-layer set,
// and spans plus counters are written to --trace-out.  A failed output check
// prints the problems on stderr, reports correct=false without numbers and
// exits 1.  The benchmark refuses to run (exit 2) from a build without
// NDEBUG or when the workload's threads would outnumber the usable CPUs.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/hlock/lock_free.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr const char* kEndToEnd[] = {"capacity_rps", "ops_per_s", "setup_s", "peak_rss_mb"};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint(const std::string& source_id) {
  std::ostringstream out;
  out << "{\"source\":" << JsonString(source_id) << ",\"cpu\":" << JsonString(CpuModel())
      << ",\"nproc\":" << UsableCpus() << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << JsonString(__VERSION__) << ",\"freelist_head_lock_free\":"
      << (hlock::LockFreeFreeList::kHeadIsAlwaysLockFree ? "true" : "false") << "}";
  return out.str();
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --rate OPS [--trace-out PATH] [--source-id ID]\n",
               why);
  return 2;
}

// Parses "--flag value" pairs.  Every flag but --trace-out and --source-id
// is required: the defaults live in BENCHMARK.json's command, not here.
bool ParseArgs(int argc, char** argv, Options* opts, std::string* source_id) {
  if (argc % 2 != 1) {
    return false;
  }
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      opts->trace = value == "1";
    } else if (flag == "--trace-out") {
      opts->trace_out = value;
    } else if (flag == "--source-id") {
      *source_id = value;
    } else if (flag == "--rate") {
      opts->svc_rate = std::strtod(value.c_str(), &end);
    } else {
      return false;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      return false;  // not a number
    }
    seen.insert(flag);
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace", "--rate"}) {
    if (seen.count(flag) == 0) {
      return false;
    }
  }
  return opts->seconds > 0 && opts->svc_rate > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::string source_id = "unknown";
  if (!ParseArgs(argc, argv, &opts, &source_id)) {
    return Usage("bad arguments");
  }
#ifndef NDEBUG
  return Usage("refusing to report from a build without NDEBUG (Debug build)");
#endif
  const bool svc = IsSvcWorkload(opts.workload);
  if (!svc && opts.workload != "sim_kernel_faults" && opts.workload != "sim_mesh") {
    return Usage(("unknown workload " + opts.workload).c_str());
  }
  if ((svc ? SvcThreads() : SimThreads()) > UsableCpus()) {
    return Usage("the workload's threads would exceed the usable CPUs");
  }

  const std::string fingerprint = Fingerprint(source_id);
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::fflush(stdout);

  TraceLog log;
  Result res = svc ? RunSvc(opts, &log)
                   : opts.workload == "sim_kernel_faults" ? RunSimKernel(opts, &log)
                                                          : RunSimMesh(opts, &log);
  if (opts.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (res.metrics.count(name) == 0) {
        res.Set(name, 0, unit);  // a layer this workload does not run
      }
    }
    if (!opts.trace_out.empty() && !log.WriteJson(opts.trace_out, fingerprint)) {
      res.Check(false, "could not write the trace to " + opts.trace_out);
    }
  } else {
    res.Set("peak_rss_mb", PeakRssMb(), "MB");
    for (const char* name : kEndToEnd) {
      res.Check(res.metrics.count(name) == 1, std::string("metric missing: ") + name);
    }
  }

  for (const std::string& p : res.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::string metrics = "{";
  if (res.correct) {
    bool first = true;
    for (const auto& [name, m] : res.metrics) {
      metrics += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
                 FormatNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
      first = false;
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  return res.correct ? 0 : 1;
}
