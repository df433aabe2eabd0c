// Tests for the hprof report builder: the canned lockprof export of a
// `fig5_lock_contention --smoke --profile` run with its committed golden text
// report (the CLI contract), SiteTable round-trips, ranking, and error paths.

#include "src/hprof/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/hmetrics/json.h"
#include "src/hprof/lock_site.h"

namespace {

using hprof::ProfileReport;
using hprof::SiteReport;

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "cannot open " << path;
  if (f == nullptr) {
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

std::string TestDataPath(const char* file) {
  return std::string(HPROF_TESTDATA_DIR) + "/" + file;
}

ProfileReport BuildCannedReport() {
  hmetrics::JsonValue doc;
  std::string error;
  EXPECT_TRUE(hmetrics::JsonParser::Parse(
      ReadFileOrDie(TestDataPath("fig5_lockprof.json")), &doc, &error))
      << error;
  ProfileReport report;
  EXPECT_TRUE(report.AddLockProf(doc, &error)) << error;
  report.Rank();
  return report;
}

// The golden file pins the exact text the hprof CLI prints for the canned
// export.  Regenerate (after inspecting the diff!) by redirecting
//   build/tools/hprof tests/hprof/testdata/fig5_lockprof.json
// into tests/hprof/testdata/fig5_report.txt.
TEST(ReportFromTrace, MatchesGoldenTextReport) {
  ProfileReport report = BuildCannedReport();
  const std::string golden = ReadFileOrDie(TestDataPath("fig5_report.txt"));
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(report.RenderText(), golden);
}

TEST(ReportFromTrace, JsonRenderingParsesAndRanks) {
  ProfileReport report = BuildCannedReport();
  hmetrics::JsonValue doc;
  std::string error;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(report.RenderJson(), &doc, &error))
      << error;
  EXPECT_EQ(doc["schema"].string_value, "hurricane-hprof-report/1");
  ASSERT_EQ(doc["sites"].array.size(), 5u);
  EXPECT_EQ(doc["sites"].at(0)["name"].string_value, "kernel/shared");
  EXPECT_EQ(doc["sites"].at(0)["handoffs"]["cross_cluster"].number, 115.0);
  // Wait ticks convert to microseconds through the export's ticks_per_us.
  EXPECT_NEAR(doc["sites"].at(0)["total_wait_us"].number, 289757.0 / 16.0, 1e-6);
}

TEST(ReportFromLockProf, RoundTripsThroughTheExportSchema) {
  hprof::SiteTable table(16.0);  // simulator ticks
  hprof::LockSiteStats& hot = table.AddSite("kernel/shared", 4);
  hot.RecordAcquire(0, 160, false);   // 10 us
  hot.RecordRelease(32);
  hot.RecordAcquire(5, 320, true);    // 20 us, cross-cluster
  hot.RecordRelease(64);
  table.AddSite("idle", 4);

  ProfileReport report;
  std::string error;
  ASSERT_TRUE(report.AddSites(table, &error)) << error;
  report.Rank();
  ASSERT_EQ(report.sites().size(), 2u);
  const SiteReport& r = report.sites()[0];
  EXPECT_EQ(r.name, "kernel/shared");
  EXPECT_EQ(r.acquisitions, 2u);
  EXPECT_EQ(r.contended, 1u);
  // Ticks convert to microseconds through the table's ticks_per_us.
  EXPECT_NEAR(r.wait.sum_us, 30.0, 1e-9);
  EXPECT_NEAR(r.total_wait_us(), 30.0, 1e-9);
  EXPECT_NEAR(r.hold.sum_us, 6.0, 1e-9);
  EXPECT_EQ(r.handoff_cross_cluster, 1u);
  EXPECT_NEAR(r.remote_handoff_pct(), 100.0, 1e-9);
}

TEST(ReportErrors, RejectsWrongSchemaAndMalformedDocs) {
  ProfileReport report;
  std::string error;
  hmetrics::JsonValue doc;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(
      R"({"schema": "something-else/9", "sites": []})", &doc, &error));
  EXPECT_FALSE(report.AddLockProf(doc, &error));
  EXPECT_NE(error.find("lockprof"), std::string::npos) << error;

  // A Chrome trace is not a lock-statistics source.
  hmetrics::JsonValue trace;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(R"({"traceEvents": []})", &trace, &error));
  EXPECT_FALSE(report.AddLockProf(trace, &error));

  // A cluster key that is not a number fails the whole document: no row of
  // it, not even the well-formed first site, reaches the report.
  hmetrics::JsonValue bad_key;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(
      R"({"schema": "hurricane-lockprof/1", "sites": [
            {"name": "ok", "by_cluster": {"0": {"acquisitions": 1}}},
            {"name": "bad", "by_cluster": {"x1": {"acquisitions": 1}}}]})",
      &bad_key, &error));
  EXPECT_FALSE(report.AddLockProf(bad_key, &error));
  EXPECT_NE(error.find("x1"), std::string::npos) << error;
  EXPECT_EQ(report.sites().size(), 0u);
}

}  // namespace
