// Offline analysis: turns hurricane-lockprof/1 documents (SiteTable::ToJson,
// the in-process aggregation every profiled lock records into exactly) into
// the ranked contention report the hprof CLI prints.
//
// The report ranks sites by total wait time (the cost a lock imposed on the
// rest of the system, the paper's Figure 5 criterion), breaks contention down
// per cluster, and profiles critical-section lengths.  RenderText output is
// fully deterministic for golden-file testing.

#ifndef HPROF_REPORT_H_
#define HPROF_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hmetrics/json.h"
#include "src/hprof/lock_site.h"

namespace hprof {

inline constexpr const char* kReportSchema = "hurricane-hprof-report/1";

// Summary statistics of one latency distribution, in microseconds.
struct HistStats {
  std::uint64_t count = 0;
  double sum_us = 0;
  double min_us = 0;
  double max_us = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
};

// One lock site's row in the report.
struct SiteReport {
  std::string name;
  std::uint32_t procs_per_cluster = 1;
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  std::uint32_t max_queue_depth = 0;
  HistStats wait;
  HistStats hold;
  std::uint64_t handoff_same_processor = 0;
  std::uint64_t handoff_same_cluster = 0;
  std::uint64_t handoff_cross_cluster = 0;
  // cluster id -> this cluster's share of the site's traffic
  std::map<std::uint32_t, LockSiteStats::ClusterShare> by_cluster;
  double ticks_per_us = 1.0;  // scale of by_cluster wait_ticks

  double contended_pct() const {
    return acquisitions == 0
               ? 0.0
               : 100.0 * static_cast<double>(contended) / static_cast<double>(acquisitions);
  }
  double total_wait_us() const { return wait.sum_us; }
  std::uint64_t handoffs_total() const {
    return handoff_same_processor + handoff_same_cluster + handoff_cross_cluster;
  }
  // Fraction of owner transitions that left the cluster -- the NUMA signal.
  double remote_handoff_pct() const {
    const std::uint64_t total = handoffs_total();
    return total == 0
               ? 0.0
               : 100.0 * static_cast<double>(handoff_cross_cluster) / static_cast<double>(total);
  }
};

class ProfileReport {
 public:
  // Consumes a parsed hurricane-lockprof/1 document.  Appends to any rows
  // already present (multi-file merges keep each file's sites distinct).
  bool AddLockProf(const hmetrics::JsonValue& doc, std::string* error);

  // Convenience: profile an in-memory SiteTable (serializes through the
  // lockprof schema so both producers exercise one code path).
  bool AddSites(const SiteTable& table, std::string* error);

  // Sorts sites by total wait, descending (stable; ties keep input order).
  void Rank();

  const std::vector<SiteReport>& sites() const { return sites_; }
  std::vector<SiteReport>& sites() { return sites_; }

  // Aggregate per-cluster contention across every site (unit-normalized).
  struct ClusterTotal {
    std::uint64_t acquisitions = 0;
    double wait_us = 0;
  };
  std::map<std::uint32_t, ClusterTotal> ClusterTotals() const;

  // Deterministic fixed-width text report; `top` caps the ranked table
  // (0 = all sites).
  std::string RenderText(std::size_t top = 0) const;

  // hurricane-hprof-report/1 JSON document.
  std::string RenderJson() const;

 private:
  std::vector<SiteReport> sites_;
};

}  // namespace hprof

#endif  // HPROF_REPORT_H_
