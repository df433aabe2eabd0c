// Labeled metric registry: counters, gauges and histograms.
//
// A series is identified by (name, label set).  Lookup returns a stable
// reference -- hot paths resolve their series once and bump a plain integer
// afterwards, so attaching a registry to a simulator run costs nothing per
// event.  The registry is intentionally NOT thread-safe: the simulator is
// single-threaded, and native harnesses shard per thread and Merge().
//
// Export is a JSON array of series objects, one line each:
//   {"name":"kernel.rpc_retries","type":"counter","labels":{...},"value":7}
// Histograms are bounded hmetrics::Histograms: they keep buckets, not raw
// samples, and export the WriteSummary fields (count, sum, min, max, mean,
// p50, p95, p99).

#ifndef HMETRICS_REGISTRY_H_
#define HMETRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/hmetrics/histogram.h"
#include "src/hmetrics/json.h"

namespace hmetrics {

// Label sets are small sorted key/value maps; std::map keeps export order
// deterministic.
using Labels = std::map<std::string, std::string>;

class Counter {
 public:
  void Add(std::uint64_t delta) { value_ += delta; }
  void Increment() { ++value_; }
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {}) {
    return Find(&counters_, name, labels);
  }
  Gauge& gauge(const std::string& name, const Labels& labels = {}) {
    return Find(&gauges_, name, labels);
  }
  Histogram& histogram(const std::string& name, const Labels& labels = {}) {
    return Find(&histograms_, name, labels);
  }

  std::size_t series_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Zeroes every series in place without invalidating cached references, so a
  // bench can reuse one registry (and its resolved handles) across
  // repetitions with no stale values leaking between runs.
  void ResetAll() {
    for (auto& [key, c] : counters_) {
      c->Reset();
    }
    for (auto& [key, g] : gauges_) {
      g->Reset();
    }
    for (auto& [key, h] : histograms_) {
      h->Reset();
    }
  }

  // Serializes every series into `w` as elements of an already-open array.
  void WriteSeries(JsonWriter* w) const {
    for (const auto& [key, c] : counters_) {
      OpenSeries(w, key, "counter");
      w->Field("value", c->value());
      w->EndObject();
    }
    for (const auto& [key, g] : gauges_) {
      OpenSeries(w, key, "gauge");
      w->Field("value", g->value());
      w->EndObject();
    }
    for (const auto& [key, h] : histograms_) {
      OpenSeries(w, key, "histogram");
      WriteSummary(w, *h);
      w->EndObject();
    }
  }

  // Standalone export: a JSON array of series.
  std::string ToJson() const {
    JsonWriter w;
    w.BeginArray();
    WriteSeries(&w);
    w.EndArray();
    return w.Take();
  }

 private:
  using SeriesKey = std::pair<std::string, Labels>;

  template <typename T>
  static T& Find(std::map<SeriesKey, std::unique_ptr<T>>* series, const std::string& name,
                 const Labels& labels) {
    auto& slot = (*series)[SeriesKey(name, labels)];
    if (slot == nullptr) {
      slot = std::make_unique<T>();
    }
    return *slot;
  }

  static void OpenSeries(JsonWriter* w, const SeriesKey& key, const char* type) {
    w->BeginObject();
    w->Field("name", key.first);
    w->Field("type", type);
    w->Key("labels");
    w->BeginObject();
    for (const auto& [k, v] : key.second) {
      w->Field(k, v);
    }
    w->EndObject();
  }

  // std::map: deterministic iteration order for export, stable element
  // addresses for cached handles.
  std::map<SeriesKey, std::unique_ptr<Counter>> counters_;
  std::map<SeriesKey, std::unique_ptr<Gauge>> gauges_;
  std::map<SeriesKey, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hmetrics

#endif  // HMETRICS_REGISTRY_H_
