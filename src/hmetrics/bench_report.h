// BenchReport: one machine-readable JSON document per bench run.
//
// Every bench binary emits (next to its human-readable table) a single-line
// JSON document with one shared schema:
//
//   {"schema":"hurricane-bench-report/1",
//    "bench":"fig5_lock_contention",
//    "params":{"hold_us":25,"smoke":false,...},
//    "series":[{"name":"response_us",
//               "labels":{"lock":"h2-mcs"},
//               "points":[{"p":1,"w_us":4.1},...]},...],
//    "env":{"sim":"hector-16mhz",...}}
//
// A series is one curve of a figure: a name, a label set distinguishing it
// from sibling curves (lock kind, protocol, cluster size...), and a list of
// points, each point a flat map of numeric fields (the x value and every
// measured y).  run_all.sh concatenates these lines into BENCH_RESULTS.json;
// Validate() is the shared schema check used by tests and tooling.

#ifndef HMETRICS_BENCH_REPORT_H_
#define HMETRICS_BENCH_REPORT_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/hmetrics/json.h"
#include "src/hmetrics/registry.h"

namespace hmetrics {

inline constexpr const char* kBenchReportSchema = "hurricane-bench-report/1";

// One point: a flat map of numeric fields, e.g. {"p":16,"w_us":230.4}.
using Point = std::map<std::string, double>;

class BenchSeries {
 public:
  BenchSeries(std::string name, Labels labels)
      : name_(std::move(name)), labels_(std::move(labels)) {}

  BenchSeries& AddPoint(Point point) {
    points_.push_back(std::move(point));
    return *this;
  }

  const std::string& name() const { return name_; }
  const Labels& labels() const { return labels_; }
  const std::vector<Point>& points() const { return points_; }

 private:
  std::string name_;
  Labels labels_;
  std::vector<Point> points_;
};

class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {
    env_["sim"] = "hector-16mhz-4x4";
  }

  const std::string& bench() const { return bench_; }

  BenchReport& SetParam(const std::string& key, double value) {
    params_[key] = value;
    return *this;
  }
  BenchReport& SetEnv(const std::string& key, std::string value) {
    env_[key] = std::move(value);
    return *this;
  }

  // The series named `name` with `labels`, added if absent.  A report holds
  // one series per (name, labels), so a sweep that adds its points one
  // coordinate at a time still emits one series (tools/check_regress.py
  // rejects a report that repeats one).
  BenchSeries& AddSeries(std::string name, Labels labels = {}) {
    for (BenchSeries& s : series_) {
      if (s.name() == name && s.labels() == labels) {
        return s;
      }
    }
    series_.emplace_back(std::move(name), std::move(labels));
    return series_.back();
  }

  const std::vector<BenchSeries>& series() const { return series_; }

  std::string ToJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Field("schema", kBenchReportSchema);
    w.Field("bench", bench_);
    w.Key("params");
    w.BeginObject();
    for (const auto& [k, v] : params_) {
      w.Field(k, v);
    }
    w.EndObject();
    w.Key("series");
    w.BeginArray();
    for (const BenchSeries& s : series_) {
      w.BeginObject();
      w.Field("name", s.name());
      w.Key("labels");
      w.BeginObject();
      for (const auto& [k, v] : s.labels()) {
        w.Field(k, v);
      }
      w.EndObject();
      w.Key("points");
      w.BeginArray();
      for (const Point& p : s.points()) {
        w.BeginObject();
        for (const auto& [k, v] : p) {
          w.Field(k, v);
        }
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.Key("env");
    w.BeginObject();
    for (const auto& [k, v] : env_) {
      w.Field(k, v);
    }
    w.EndObject();
    w.EndObject();
    return w.Take();
  }

  // Checks that `doc` conforms to the shared report schema.  On failure
  // returns false and describes the first problem in *error.
  static bool Validate(const JsonValue& doc, std::string* error) {
    auto fail = [error](const std::string& what) {
      *error = what;
      return false;
    };
    if (!doc.is_object()) {
      return fail("report is not an object");
    }
    if (doc["schema"].string_value != kBenchReportSchema) {
      return fail("missing or wrong schema tag");
    }
    if (!doc["bench"].is_string() || doc["bench"].string_value.empty()) {
      return fail("missing bench name");
    }
    if (!doc["params"].is_object()) {
      return fail("missing params object");
    }
    for (const auto& [k, v] : doc["params"].object) {
      if (!v.is_number()) {
        return fail("param '" + k + "' is not numeric");
      }
    }
    if (!doc["series"].is_array()) {
      return fail("missing series array");
    }
    for (const JsonValue& s : doc["series"].array) {
      if (!s.is_object() || !s["name"].is_string()) {
        return fail("series without a name");
      }
      if (!s["labels"].is_object()) {
        return fail("series '" + s["name"].string_value + "' has no labels object");
      }
      if (!s["points"].is_array()) {
        return fail("series '" + s["name"].string_value + "' has no points array");
      }
      for (const JsonValue& p : s["points"].array) {
        if (!p.is_object()) {
          return fail("non-object point in series '" + s["name"].string_value + "'");
        }
        for (const auto& [k, v] : p.object) {
          if (!v.is_number()) {
            return fail("non-numeric field '" + k + "' in series '" +
                        s["name"].string_value + "'");
          }
        }
      }
    }
    if (!doc["env"].is_object()) {
      return fail("missing env object");
    }
    return true;
  }

 private:
  std::string bench_;
  std::map<std::string, double> params_;
  std::vector<BenchSeries> series_;
  std::map<std::string, std::string> env_;
};

}  // namespace hmetrics

#endif  // HMETRICS_BENCH_REPORT_H_
