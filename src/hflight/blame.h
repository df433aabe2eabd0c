// Offline "why is p99 slow" analysis: turns a hurricane-flight/1 document
// (optionally merged with a hurricane-lockprof/1 document) into a blame
// report for the tail of the latency distribution.
//
// The analysis works on the *promoted* records -- the tail sampler keeps
// exactly the requests at/above the configured quantile -- and answers three
// questions:
//   1. Where does tail time go?  Per-phase blame shares: each phase's ticks
//      summed over the tail records, divided by the tail's total latency.
//   2. Which locks?  Top lock sites ranked by their contribution to tail
//      lock_wait, with each site's cross-cluster share.
//   3. Is it NUMA?  The fraction of tail lock_wait granted via cross-cluster
//      handoffs; when a lockprof doc is merged, each blamed site also shows
//      its system-wide contention stats (acquisitions, contended %, remote
//      handoff %) so the reader can tell "this site is always hot" from
//      "this site only hurts the tail".
//
// Every report self-checks the recorder's core invariant: per tail record,
// the eight phases must sum to the record's measured end-to-end latency
// within 1% (they are constructed to match exactly; the check catches
// corrupted or hand-edited documents).  RenderText output is deterministic
// for golden-file testing.

#ifndef HFLIGHT_BLAME_H_
#define HFLIGHT_BLAME_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hmetrics/json.h"
#include "src/hflight/flight.h"
#include "src/hprof/report.h"

namespace hflight {

inline constexpr const char* kBlameSchema = "hurricane-hwhy-report/1";

// One tail record as parsed back from the flight doc.
struct TailRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t cluster = 0;
  std::string fate;
  std::uint64_t total = 0;
  std::uint64_t phase[kNumPhases] = {};
  std::uint64_t lock_wait_cross = 0;
  std::uint32_t retries = 0;
  std::uint32_t rpc_retransmits = 0;
  std::vector<SiteWait> site_waits;  // SiteWait::site indexes BlameReport::site_names_
};

// Per-site tail contribution plus (when a lockprof doc was merged) the
// site's system-wide contention row.
struct SiteBlame {
  std::string name;
  std::uint64_t tail_wait_ticks = 0;
  std::uint64_t tail_cross_ticks = 0;
  bool have_lockprof = false;
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  double remote_handoff_pct = 0.0;

  double cross_pct() const {
    return tail_wait_ticks == 0 ? 0.0
                                : 100.0 * static_cast<double>(tail_cross_ticks) /
                                      static_cast<double>(tail_wait_ticks);
  }
};

class BlameReport {
 public:
  // Consumes a parsed hurricane-flight/1 document.
  bool AddFlight(const hmetrics::JsonValue& doc, std::string* error);

  // Consumes a parsed hurricane-lockprof/1 document through
  // hprof::ProfileReport::AddLockProf; its rows merge by site name into the
  // blamed sites.  Order-independent with AddFlight.
  bool AddLockProf(const hmetrics::JsonValue& doc, std::string* error);

  // Runs the analysis over the tail records loaded so far.  Returns false
  // (with *error) when any record's phases fail the 1% reconciliation check
  // or no flight document was loaded.
  bool Analyze(std::string* error);

  // -- results (valid after Analyze) ----------------------------------------
  std::uint64_t tail_records() const { return static_cast<std::uint64_t>(tail_.size()); }
  std::uint64_t tail_total_ticks() const { return tail_total_; }
  // Phase blame share in [0,1]: the phase's ticks over the tail, divided by
  // the tail's summed end-to-end latency.
  double phase_share(Phase p) const {
    return tail_total_ == 0 ? 0.0
                            : static_cast<double>(phase_ticks_[static_cast<int>(p)]) /
                                  static_cast<double>(tail_total_);
  }
  std::uint64_t phase_ticks(Phase p) const { return phase_ticks_[static_cast<int>(p)]; }
  // Cross-cluster share of tail lock_wait, in [0,1].
  double cross_cluster_share() const;
  // Sites ranked by tail_wait_ticks, descending.
  const std::vector<SiteBlame>& sites() const { return sites_; }
  const std::vector<TailRecord>& tail() const { return tail_; }
  double ticks_per_us() const { return ticks_per_us_; }
  // Worst relative reconciliation error over the tail records.
  double max_reconcile_error() const { return max_reconcile_error_; }

  // Deterministic fixed-width text report; `top` caps the site table
  // (0 = all).
  std::string RenderText(std::size_t top = 0) const;

  // hurricane-hwhy-report/1 JSON document.
  std::string RenderJson() const;

  // Builds a small synthetic flight+lockprof pair in memory, runs the full
  // pipeline on it, and verifies the known-by-construction blame shares.
  // Returns false with a diagnostic on any mismatch (the CI smoke entry).
  static bool SelfTest(std::string* error);

 private:
  std::uint32_t InternSite(const std::string& name);

  bool have_flight_ = false;
  double ticks_per_us_ = 1.0;
  double tail_quantile_ = 0.99;
  std::vector<TailRecord> tail_;
  std::vector<std::string> site_names_;
  std::map<std::string, std::uint32_t> site_ids_;
  std::map<std::string, hprof::SiteReport> lockprof_;

  // Analyze() outputs.
  std::uint64_t tail_total_ = 0;
  std::uint64_t phase_ticks_[kNumPhases] = {};
  std::uint64_t cross_ticks_ = 0;
  double max_reconcile_error_ = 0.0;
  std::vector<SiteBlame> sites_;
};

}  // namespace hflight

#endif  // HFLIGHT_BLAME_H_
