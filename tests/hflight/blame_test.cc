// Tests for the hwhy blame analysis: the golden text report over canned
// flight + lockprof documents, the 1% reconciliation gate, schema rejection,
// the JSON renderer, and the built-in self-test (CI's smoke entry).

#include "src/hflight/blame.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/hmetrics/json.h"

namespace hflight {
namespace {

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "cannot open " << path;
  if (f == nullptr) {
    return {};
  }
  std::string out;
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

hmetrics::JsonValue ParseFile(const std::string& name) {
  const std::string text = ReadFile(std::string(HFLIGHT_TESTDATA_DIR) + "/" + name);
  hmetrics::JsonValue doc;
  std::string error;
  EXPECT_TRUE(hmetrics::JsonParser::Parse(text, &doc, &error)) << name << ": " << error;
  return doc;
}

TEST(BlameReportTest, GoldenTextReport) {
  BlameReport report;
  std::string error;
  ASSERT_TRUE(report.AddFlight(ParseFile("flight.json"), &error)) << error;
  ASSERT_TRUE(report.AddLockProf(ParseFile("lockprof.json"), &error)) << error;
  ASSERT_TRUE(report.Analyze(&error)) << error;

  // Regenerate with:
  //   build/tools/hwhy tests/hflight/testdata/flight.json
  //     tests/hflight/testdata/lockprof.json --top=5
  //     | head -c -1 > tests/hflight/testdata/golden_report.txt
  // (one command line; hwhy prints one extra trailing newline after the
  // report, which head -c -1 strips).
  const std::string golden =
      ReadFile(std::string(HFLIGHT_TESTDATA_DIR) + "/golden_report.txt");
  EXPECT_EQ(report.RenderText(5), golden);
}

TEST(BlameReportTest, AnalysisAggregatesAcrossRecords) {
  BlameReport report;
  std::string error;
  ASSERT_TRUE(report.AddFlight(ParseFile("flight.json"), &error)) << error;
  ASSERT_TRUE(report.Analyze(&error)) << error;

  EXPECT_EQ(report.tail_records(), 2u);
  EXPECT_EQ(report.tail_total_ticks(), 2400u);
  EXPECT_EQ(report.phase_ticks(Phase::kLockWait), 350u);
  EXPECT_DOUBLE_EQ(report.phase_share(Phase::kLockWait), 350.0 / 2400.0);
  // Cross ticks 150 of 350 tail lock_wait.
  EXPECT_DOUBLE_EQ(report.cross_cluster_share(), 150.0 / 350.0);
  EXPECT_EQ(report.max_reconcile_error(), 0.0);
  ASSERT_EQ(report.sites().size(), 2u);
  EXPECT_EQ(report.sites()[0].name, "svc.table");  // 250 > 100 ticks
  EXPECT_FALSE(report.sites()[0].have_lockprof);   // no lockprof doc loaded
  // Causal link survives the parse.
  EXPECT_EQ(report.tail()[1].parent, 11u);
}

TEST(BlameReportTest, LockProfMergeEnrichesSites) {
  BlameReport report;
  std::string error;
  // Order-independence: lockprof first.
  ASSERT_TRUE(report.AddLockProf(ParseFile("lockprof.json"), &error)) << error;
  ASSERT_TRUE(report.AddFlight(ParseFile("flight.json"), &error)) << error;
  ASSERT_TRUE(report.Analyze(&error)) << error;
  ASSERT_EQ(report.sites().size(), 2u);
  const SiteBlame& top = report.sites()[0];
  EXPECT_TRUE(top.have_lockprof);
  EXPECT_EQ(top.acquisitions, 5000u);
  EXPECT_EQ(top.contended, 1200u);
  EXPECT_DOUBLE_EQ(top.remote_handoff_pct, 30.0);  // 1500 of 5000 handoffs
  EXPECT_FALSE(report.sites()[1].have_lockprof);
}

TEST(BlameReportTest, ReconciliationFailureIsLoud) {
  // A record whose ledger sums to half its claimed total: corrupt input must
  // fail, not silently skew the blame shares.
  const std::string bad =
      "{\"schema\":\"hurricane-flight/1\",\"ticks_per_us\":1,\"promoted\":["
      "{\"id\":99,\"cluster\":0,\"fate\":\"ok\",\"total\":1000,"
      "\"lock_wait_cross\":0,\"phases\":{\"admit\":0,\"inbox\":0,\"batch\":0,"
      "\"lock_wait\":500,\"hold\":0,\"rpc\":0,\"other\":0,\"reply\":0}}]}";
  hmetrics::JsonValue doc;
  std::string error;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(bad, &doc, &error)) << error;
  BlameReport report;
  ASSERT_TRUE(report.AddFlight(doc, &error)) << error;
  EXPECT_FALSE(report.Analyze(&error));
  EXPECT_NE(error.find("99"), std::string::npos) << error;
  EXPECT_NE(error.find("reconciliation"), std::string::npos) << error;
}

TEST(BlameReportTest, RejectsWrongSchemaAndEmptyInput) {
  hmetrics::JsonValue doc;
  std::string error;
  ASSERT_TRUE(hmetrics::JsonParser::Parse("{\"schema\":\"something-else/1\"}", &doc, &error));
  BlameReport report;
  EXPECT_FALSE(report.AddFlight(doc, &error));
  // Analyze without any flight doc fails too.
  EXPECT_FALSE(report.Analyze(&error));
  EXPECT_NE(error.find("no flight document"), std::string::npos);
}

// A `sites` array alone does not make a lockprof document: without the
// schema the rows are not merged into the blamed sites.
TEST(BlameReportTest, RejectsSitesWithoutLockProfSchema) {
  hmetrics::JsonValue doc;
  std::string error;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(
      "{\"sites\":[{\"name\":\"svc.table\",\"acquisitions\":5000}]}", &doc, &error));
  BlameReport report;
  EXPECT_FALSE(report.AddLockProf(doc, &error));
  EXPECT_NE(error.find("hurricane-lockprof/1"), std::string::npos) << error;
  ASSERT_TRUE(report.AddFlight(ParseFile("flight.json"), &error)) << error;
  ASSERT_TRUE(report.Analyze(&error)) << error;
  ASSERT_FALSE(report.sites().empty());
  EXPECT_FALSE(report.sites()[0].have_lockprof);
}

TEST(BlameReportTest, RenderJsonIsAValidReportDoc) {
  BlameReport report;
  std::string error;
  ASSERT_TRUE(report.AddFlight(ParseFile("flight.json"), &error)) << error;
  ASSERT_TRUE(report.Analyze(&error)) << error;
  hmetrics::JsonValue doc;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(report.RenderJson(), &doc, &error)) << error;
  EXPECT_EQ(doc["schema"].string_value, kBlameSchema);
  EXPECT_EQ(doc["tail_records"].number, 2.0);
  ASSERT_TRUE(doc.Has("phase_share"));
  double share_sum = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    share_sum += doc["phase_share"][PhaseName(static_cast<Phase>(p))].number;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  ASSERT_EQ(doc["sites"].array.size(), 2u);
}

TEST(BlameReportTest, SelfTestPasses) {
  std::string error;
  EXPECT_TRUE(BlameReport::SelfTest(&error)) << error;
}

}  // namespace
}  // namespace hflight
