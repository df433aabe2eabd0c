// hprof: offline lock-contention analysis.
//
//   hprof [--json] [--top=N] FILE...
//
// Each FILE is a hurricane-lockprof/1 document: the SiteTable export written
// by `bench --profile=PATH`, or by LockSiteStats in any host program.  All
// inputs merge into one report: hot locks ranked by total wait time, NUMA
// handoff attribution, per-cluster contention shares, and critical-section
// profiles.  Chrome traces (`bench --trace=PATH`) are for Perfetto, not for
// this tool; they are rejected like any other non-lockprof document.
//
// Flags:
//   --json   emit the hurricane-hprof-report/1 JSON document instead of the
//            text report.
//   --top=N  show only the N hottest locks (text report).
//
// Exit status: 0 on success, 1 on unreadable/unparseable input, 2 on usage
// errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/hmetrics/json.h"
#include "src/hprof/report.h"

namespace {

bool ReadFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hprof [--json] [--top=N] FILE...\n"
               "  FILE: hurricane-lockprof/1 export\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::size_t top = 0;
  std::vector<const char*> files;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      top = static_cast<std::size_t>(std::strtoul(arg + 6, nullptr, 10));
    } else if (arg[0] == '-' && arg[1] != '\0') {
      std::fprintf(stderr, "hprof: unknown flag %s\n", arg);
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    return Usage();
  }

  hprof::ProfileReport report;
  for (const char* path : files) {
    std::string text;
    if (!ReadFile(path, &text)) {
      std::fprintf(stderr, "hprof: cannot read %s\n", path);
      return 1;
    }
    hmetrics::JsonValue doc;
    std::string error;
    if (!hmetrics::JsonParser::Parse(text, &doc, &error) || !report.AddLockProf(doc, &error)) {
      std::fprintf(stderr, "hprof: %s: %s\n", path, error.c_str());
      return 1;
    }
  }

  report.Rank();
  const std::string out = json ? report.RenderJson() : report.RenderText(top);
  std::fputs(out.c_str(), stdout);
  return 0;
}
