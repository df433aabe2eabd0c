// Shared command-line handling for the bench binaries.
//
// Every bench supports the same flags:
//   --json[=PATH]    emit the BenchReport JSON document (stdout by default).
//                    The human table still prints to stdout; with plain
//                    --json the report is the LAST line, so
//                    `bench --json | tail -1` is always valid JSON.
//   --smoke          tiny iteration counts: exercise every code path and
//                    produce a schema-valid report in seconds (CI mode).
//   --trace=PATH     write a Chrome trace_event JSON of an instrumented run
//                    (benches that support tracing document what is traced).
//   --profile[=PATH] run with lock-site profiling attached and print an hprof
//                    contention report; with =PATH also write the raw
//                    hurricane-lockprof/1 document (hprof CLI input) there.
//                    Benches that support profiling document the scenario.
//   --why[=PATH]     run with a flight recorder attached and print an hwhy
//                    tail-blame report; with =PATH also write the raw
//                    hurricane-flight/1 document (hwhy CLI input) there.
//                    Benches that support it document which runs are recorded.
//   --faults         run the fault campaign instead of the figure
//                    (fig7_fault_tests).
//
// Any other argument is an error: ParseBenchArgs prints the usage and exits
// with status 2, so a misspelt flag never runs a bench in its default mode.

#ifndef HMETRICS_BENCH_MAIN_H_
#define HMETRICS_BENCH_MAIN_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/hmetrics/bench_report.h"
#include "src/hmetrics/trace.h"

namespace hmetrics {

struct BenchOptions {
  bool json = false;
  std::string json_path;   // empty: stdout
  bool smoke = false;
  std::string trace_path;  // empty: tracing off
  bool profile = false;
  std::string profile_path;  // empty: report to stdout only
  bool why = false;
  std::string why_path;  // empty: report to stdout only
  bool faults = false;
};

// Parses argv[1..argc) into *opts.  Returns false, naming the first
// unrecognized argument in *error, if any argument is not a shared flag.
inline bool ParseBenchFlags(int argc, char** argv, BenchOptions* opts, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      opts->json = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opts->json = true;
      opts->json_path = arg + 7;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opts->smoke = true;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      opts->trace_path = arg + 8;
    } else if (std::strcmp(arg, "--profile") == 0) {
      opts->profile = true;
    } else if (std::strncmp(arg, "--profile=", 10) == 0) {
      opts->profile = true;
      opts->profile_path = arg + 10;
    } else if (std::strcmp(arg, "--why") == 0) {
      opts->why = true;
    } else if (std::strncmp(arg, "--why=", 6) == 0) {
      opts->why = true;
      opts->why_path = arg + 6;
    } else if (std::strcmp(arg, "--faults") == 0) {
      opts->faults = true;
    } else {
      *error = std::string("unrecognized argument '") + arg + "'";
      return false;
    }
  }
  return true;
}

// The main() entry: the parsed options, or usage on stderr and exit(2).
inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions opts;
  std::string error;
  if (!ParseBenchFlags(argc, argv, &opts, &error)) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--json[=PATH]] [--smoke] [--trace=PATH] "
                 "[--profile[=PATH]] [--why[=PATH]] [--faults]\n",
                 argv[0], error.c_str(), argv[0]);
    std::exit(2);
  }
  return opts;
}

// Writes `report` as one line of JSON to opts.json_path (or stdout).  No-op
// unless --json was given.  Returns false if the output file cannot be
// written.
inline bool WriteReport(const BenchOptions& opts, const BenchReport& report) {
  if (!opts.json) {
    return true;
  }
  const std::string doc = report.ToJson();
  if (opts.json_path.empty()) {
    std::printf("%s\n", doc.c_str());
    return true;
  }
  std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", doc.c_str());
  std::fclose(f);
  return true;
}

// Writes a trace session to opts.trace_path.  No-op when tracing is off.
inline bool WriteTrace(const BenchOptions& opts, const TraceSession& trace) {
  if (opts.trace_path.empty()) {
    return true;
  }
  const std::string doc = trace.ToChromeJson();
  std::FILE* f = std::fopen(opts.trace_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opts.trace_path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", doc.c_str());
  std::fclose(f);
  return true;
}

// Writes `doc` (any JSON document string, e.g. a lockprof export) to `path`.
inline bool WriteJsonFile(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", doc.c_str());
  std::fclose(f);
  return true;
}

}  // namespace hmetrics

#endif  // HMETRICS_BENCH_MAIN_H_
