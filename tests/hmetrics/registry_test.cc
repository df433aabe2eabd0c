// Registry tests: series identity is (name, label set), lookups return
// stable references (hot paths cache them), and export parses back.

#include "src/hmetrics/registry.h"

#include <gtest/gtest.h>

#include <string>

#include "src/hmetrics/json.h"

namespace hmetrics {
namespace {

TEST(Registry, LabelsDistinguishSeries) {
  Registry reg;
  reg.counter("lock.acquisitions", {{"lock", "ttas"}}).Add(3);
  reg.counter("lock.acquisitions", {{"lock", "h2-mcs"}}).Add(5);
  reg.counter("lock.acquisitions").Increment();  // unlabeled is its own series

  EXPECT_EQ(reg.counter("lock.acquisitions", {{"lock", "ttas"}}).value(), 3u);
  EXPECT_EQ(reg.counter("lock.acquisitions", {{"lock", "h2-mcs"}}).value(), 5u);
  EXPECT_EQ(reg.counter("lock.acquisitions").value(), 1u);
  EXPECT_EQ(reg.series_count(), 3u);
}

TEST(Registry, ReferencesStayStableAcrossInserts) {
  Registry reg;
  Counter& cached = reg.counter("kernel.rpcs");
  Histogram& hist = reg.histogram("kernel.rpc_batch_depth");
  // Creating many more series must not move the cached elements (the kernel
  // caches these pointers and bumps them on the hot path).
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i)).Increment();
    reg.histogram("hfiller." + std::to_string(i)).Record(1);
  }
  cached.Add(7);
  hist.Record(4);
  EXPECT_EQ(&cached, &reg.counter("kernel.rpcs"));
  EXPECT_EQ(&hist, &reg.histogram("kernel.rpc_batch_depth"));
  EXPECT_EQ(reg.counter("kernel.rpcs").value(), 7u);
  EXPECT_EQ(reg.histogram("kernel.rpc_batch_depth").count(), 1u);
}

TEST(Registry, GaugeHoldsLastValue) {
  Registry reg;
  reg.gauge("machine.module_utilization", {{"module", "0"}}).Set(0.25);
  reg.gauge("machine.module_utilization", {{"module", "0"}}).Set(0.75);
  EXPECT_DOUBLE_EQ(reg.gauge("machine.module_utilization", {{"module", "0"}}).value(),
                   0.75);
}

TEST(Registry, ToJsonParsesBack) {
  Registry reg;
  reg.counter("kernel.faults", {{"test", "independent"}}).Add(12);
  reg.gauge("util").Set(0.5);
  Histogram& h = reg.histogram("lock.acquire_ticks", {{"lock", "ttas"}});
  for (std::uint64_t v : {10, 20, 30}) {
    h.Record(v);
  }

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonParser::Parse(reg.ToJson(), &doc, &error)) << error;
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 3u);

  bool saw_counter = false;
  bool saw_gauge = false;
  bool saw_hist = false;
  for (const JsonValue& s : doc.array) {
    ASSERT_TRUE(s.is_object());
    const std::string& type = s["type"].string_value;
    if (type == "counter") {
      saw_counter = true;
      EXPECT_EQ(s["name"].string_value, "kernel.faults");
      EXPECT_EQ(s["labels"]["test"].string_value, "independent");
      EXPECT_DOUBLE_EQ(s["value"].number, 12.0);
    } else if (type == "gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(s["value"].number, 0.5);
    } else if (type == "histogram") {
      saw_hist = true;
      EXPECT_EQ(s["labels"]["lock"].string_value, "ttas");
      EXPECT_DOUBLE_EQ(s["count"].number, 3.0);
      EXPECT_DOUBLE_EQ(s["sum"].number, 60.0);
      EXPECT_DOUBLE_EQ(s["p50"].number, 20.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST(RegistryTest, ResetAllZeroesEverySeriesInPlace) {
  Registry reg;
  Counter& c = reg.counter("ops", {{"lock", "mcs"}});
  Gauge& g = reg.gauge("util");
  Histogram& h = reg.histogram("wait");
  c.Add(7);
  g.Set(0.75);
  h.Record(10);
  h.Record(20);
  h.Record(30);

  reg.ResetAll();

  // The same references stay valid and read as zero...
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  // ...no series was deleted, and the handles still record.
  EXPECT_EQ(reg.series_count(), 3u);
  c.Increment();
  h.Record(5);
  EXPECT_EQ(reg.counter("ops", {{"lock", "mcs"}}).value(), 1u);
  EXPECT_EQ(reg.histogram("wait").count(), 1u);
}

}  // namespace
}  // namespace hmetrics
