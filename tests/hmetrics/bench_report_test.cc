// BenchReport round-trip and schema-validation tests: every bench binary
// emits this document shape, and run_all.sh / tooling trusts Validate() to
// reject anything that drifted.

#include "src/hmetrics/bench_report.h"

#include <gtest/gtest.h>

#include <string>

#include "src/hmetrics/json.h"

namespace hmetrics {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(JsonParser::Parse(text, &doc, &error)) << error << "\n" << text;
  return doc;
}

TEST(BenchReport, RoundTripValidates) {
  BenchReport report("fig5_lock_contention");
  report.SetParam("hold_us", 25).SetParam("smoke", 0);
  report.SetEnv("build", "test");
  report.AddSeries("response_us", {{"lock", "h2-mcs"}, {"hold_us", "25"}})
      .AddPoint({{"p", 1}, {"w_us", 4.1}})
      .AddPoint({{"p", 16}, {"w_us", 230.4}});
  report.AddSeries("starvation", {{"lock", "ttas"}}).AddPoint({{"frac", 0.25}});

  const JsonValue doc = MustParse(report.ToJson());
  std::string error;
  EXPECT_TRUE(BenchReport::Validate(doc, &error)) << error;

  EXPECT_EQ(doc["schema"].string_value, kBenchReportSchema);
  EXPECT_EQ(doc["bench"].string_value, "fig5_lock_contention");
  EXPECT_DOUBLE_EQ(doc["params"]["hold_us"].number, 25.0);
  EXPECT_EQ(doc["env"]["build"].string_value, "test");
  ASSERT_EQ(doc["series"].array.size(), 2u);
  const JsonValue& s0 = doc["series"].at(0);
  EXPECT_EQ(s0["name"].string_value, "response_us");
  EXPECT_EQ(s0["labels"]["lock"].string_value, "h2-mcs");
  ASSERT_EQ(s0["points"].array.size(), 2u);
  EXPECT_DOUBLE_EQ(s0["points"].at(1)["w_us"].number, 230.4);
}

TEST(BenchReport, RepeatedSeriesKeyAddsPointsToOneSeries) {
  // A sweep whose inner loop alternates label sets, as ablation_protocols
  // does (cluster size outer, protocol inner), still emits one series per
  // label set with one point per coordinate.
  BenchReport report("sweep");
  for (double cs : {2.0, 4.0}) {
    for (const char* protocol : {"optimistic", "pessimistic"}) {
      report.AddSeries("shared_fault", {{"protocol", protocol}}).AddPoint({{"cluster_size", cs}});
    }
  }
  ASSERT_EQ(report.series().size(), 2u);
  EXPECT_EQ(report.series()[0].labels().at("protocol"), "optimistic");
  ASSERT_EQ(report.series()[0].points().size(), 2u);
  EXPECT_DOUBLE_EQ(report.series()[0].points()[1].at("cluster_size"), 4.0);
  EXPECT_EQ(report.series()[1].points().size(), 2u);
}

TEST(BenchReport, EmptyReportStillValid) {
  // A bench with no series yet (or one that measured nothing under --smoke)
  // still emits a schema-conforming document.
  BenchReport report("empty_bench");
  const JsonValue doc = MustParse(report.ToJson());
  std::string error;
  EXPECT_TRUE(BenchReport::Validate(doc, &error)) << error;
  EXPECT_TRUE(doc["series"].array.empty());
  // The default env carries the simulated-machine tag.
  EXPECT_FALSE(doc["env"]["sim"].string_value.empty());
}

TEST(BenchReport, ValidateRejectsWrongSchemaTag) {
  const JsonValue doc = MustParse(
      R"({"schema":"something-else/9","bench":"x","params":{},"series":[],"env":{}})");
  std::string error;
  EXPECT_FALSE(BenchReport::Validate(doc, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(BenchReport, ValidateRejectsNonObject) {
  const JsonValue doc = MustParse("[1,2,3]");
  std::string error;
  EXPECT_FALSE(BenchReport::Validate(doc, &error));
}

TEST(BenchReport, ValidateRejectsNonNumericParam) {
  const JsonValue doc = MustParse(
      R"({"schema":"hurricane-bench-report/1","bench":"x",)"
      R"("params":{"hold":"25us"},"series":[],"env":{}})");
  std::string error;
  EXPECT_FALSE(BenchReport::Validate(doc, &error));
  EXPECT_NE(error.find("hold"), std::string::npos) << error;
}

TEST(BenchReport, ValidateRejectsSeriesWithoutLabels) {
  const JsonValue doc = MustParse(
      R"({"schema":"hurricane-bench-report/1","bench":"x","params":{},)"
      R"("series":[{"name":"s","points":[]}],"env":{}})");
  std::string error;
  EXPECT_FALSE(BenchReport::Validate(doc, &error));
  EXPECT_NE(error.find("labels"), std::string::npos) << error;
}

TEST(BenchReport, ValidateRejectsNonNumericPointField) {
  const JsonValue doc = MustParse(
      R"({"schema":"hurricane-bench-report/1","bench":"x","params":{},)"
      R"("series":[{"name":"s","labels":{},"points":[{"w_us":"fast"}]}],"env":{}})");
  std::string error;
  EXPECT_FALSE(BenchReport::Validate(doc, &error));
  EXPECT_NE(error.find("w_us"), std::string::npos) << error;
}

TEST(BenchReport, ValidateRejectsMissingEnv) {
  const JsonValue doc = MustParse(
      R"({"schema":"hurricane-bench-report/1","bench":"x","params":{},"series":[]})");
  std::string error;
  EXPECT_FALSE(BenchReport::Validate(doc, &error));
  EXPECT_NE(error.find("env"), std::string::npos) << error;
}

}  // namespace
}  // namespace hmetrics
