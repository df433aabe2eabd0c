#include "src/hprof/report.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hprof {
namespace {

using hmetrics::JsonValue;

// Nearest-rank percentile with hmetrics::Histogram's rank rule, over a sorted
// vector of doubles (trace timestamps are already in microseconds).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  p = std::min(std::max(p, 0.0), 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

HistStats StatsFromSamples(std::vector<double> samples) {
  HistStats s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  for (double v : samples) {
    s.sum_us += v;
  }
  s.min_us = samples.front();
  s.max_us = samples.back();
  s.mean_us = s.sum_us / static_cast<double>(samples.size());
  s.p50_us = Percentile(samples, 50);
  s.p95_us = Percentile(samples, 95);
  s.p99_us = Percentile(samples, 99);
  return s;
}

// Reads a lockprof histogram object ({count,sum,min,max,mean,p50,p95,p99} in
// ticks) into microseconds.
HistStats StatsFromJson(const JsonValue& h, double ticks_per_us) {
  HistStats s;
  const double scale = ticks_per_us > 0 ? 1.0 / ticks_per_us : 1.0;
  s.count = static_cast<std::uint64_t>(h["count"].number);
  s.sum_us = h["sum"].number * scale;
  s.min_us = h["min"].number * scale;
  s.max_us = h["max"].number * scale;
  s.mean_us = h["mean"].number * scale;
  s.p50_us = h["p50"].number * scale;
  s.p95_us = h["p95"].number * scale;
  s.p99_us = h["p99"].number * scale;
  return s;
}

void Append(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

// One parsed lock/acquire span from a Chrome trace.
struct AcquireEvent {
  std::uint32_t tid = 0;
  double ts_us = 0;     // wait started
  double wait_us = 0;   // span duration
  double grant_us = 0;  // ts + dur: the moment the lock was granted
};

}  // namespace

bool ProfileReport::AddLockProf(const JsonValue& doc, std::string* error) {
  if (!doc.is_object() || doc["schema"].string_value != kLockProfSchema) {
    if (error != nullptr) {
      *error = std::string("not a ") + kLockProfSchema + " document";
    }
    return false;
  }
  const double ticks_per_us = doc["ticks_per_us"].is_number() && doc["ticks_per_us"].number > 0
                                  ? doc["ticks_per_us"].number
                                  : 1.0;
  for (const JsonValue& s : doc["sites"].array) {
    SiteReport r;
    r.name = s["name"].string_value;
    r.procs_per_cluster = static_cast<std::uint32_t>(s["procs_per_cluster"].number);
    r.acquisitions = static_cast<std::uint64_t>(s["acquisitions"].number);
    r.contended = static_cast<std::uint64_t>(s["contended"].number);
    r.max_queue_depth = static_cast<std::uint32_t>(s["max_queue_depth"].number);
    r.wait = StatsFromJson(s["wait"], ticks_per_us);
    r.hold = StatsFromJson(s["hold"], ticks_per_us);
    const JsonValue& h = s["handoffs"];
    r.handoff_same_processor = static_cast<std::uint64_t>(h["same_processor"].number);
    r.handoff_same_cluster = static_cast<std::uint64_t>(h["same_cluster"].number);
    r.handoff_cross_cluster = static_cast<std::uint64_t>(h["cross_cluster"].number);
    r.ticks_per_us = ticks_per_us;
    for (const auto& [key, share] : s["by_cluster"].object) {
      LockSiteStats::ClusterShare cs;
      cs.acquisitions = static_cast<std::uint64_t>(share["acquisitions"].number);
      cs.wait_ticks = static_cast<std::uint64_t>(share["wait_sum"].number);
      r.by_cluster[static_cast<std::uint32_t>(std::stoul(key))] = cs;
    }
    sites_.push_back(std::move(r));
  }
  return true;
}

bool ProfileReport::AddTrace(const JsonValue& doc, const TraceBuildOptions& opts,
                             std::string* error) {
  if (!doc.is_object() || !doc["traceEvents"].is_array()) {
    if (error != nullptr) {
      *error = "not a Chrome trace document (no traceEvents array)";
    }
    return false;
  }
  const std::uint32_t ppc = opts.procs_per_cluster == 0 ? 1 : opts.procs_per_cluster;

  // Re-attribute events to lock sites.  Acquire spans carry the lock name in
  // args.lock; release instants do too (older traces without the arg fall
  // into one "unknown" bucket).
  std::map<std::string, std::vector<AcquireEvent>> acquires;
  std::map<std::string, std::vector<double>> truncated_waits;
  std::map<std::pair<std::string, std::uint32_t>, std::vector<double>> releases;
  for (const JsonValue& e : doc["traceEvents"].array) {
    const std::string& name = e["name"].string_value;
    const std::uint32_t tid = static_cast<std::uint32_t>(e["tid"].number);
    const std::string lock =
        e["args"]["lock"].is_string() ? e["args"]["lock"].string_value : "unknown";
    if (name == "lock/acquire" && e["ph"].string_value == "X") {
      if (e["args"]["truncated"].bool_value) {
        // The run ended mid-wait: no grant, so no wait sample -- but the
        // waiter held a queue slot from its arrival to the end of the trace,
        // so it still counts for queue depth below.
        truncated_waits[lock].push_back(e["ts"].number);
        continue;
      }
      AcquireEvent a;
      a.tid = tid;
      a.ts_us = e["ts"].number;
      a.wait_us = e["dur"].number;
      a.grant_us = a.ts_us + a.wait_us;
      acquires[lock].push_back(a);
    } else if (name == "lock/release" && e["ph"].string_value == "i") {
      releases[{lock, tid}].push_back(e["ts"].number);
    }
  }
  for (auto& [key, rel] : releases) {
    std::sort(rel.begin(), rel.end());
  }

  for (auto& [lock, events] : acquires) {
    SiteReport r;
    r.name = lock;
    r.procs_per_cluster = ppc;
    r.acquisitions = events.size();
    r.ticks_per_us = 1.0;  // trace-derived shares are already microseconds

    // Grant order drives the handoff matrix (ownership passes grant to
    // grant); span overlap drives queue depth.
    std::sort(events.begin(), events.end(),
              [](const AcquireEvent& a, const AcquireEvent& b) {
                return a.grant_us != b.grant_us ? a.grant_us < b.grant_us
                                                : a.ts_us < b.ts_us;
              });
    bool have_prev = false;
    std::uint32_t prev_tid = 0;
    std::vector<double> waits;
    waits.reserve(events.size());
    for (const AcquireEvent& a : events) {
      waits.push_back(a.wait_us);
      if (a.wait_us > opts.contended_threshold_us) {
        ++r.contended;
      }
      if (have_prev) {
        switch (LockSiteStats::Classify(prev_tid, a.tid, ppc)) {
          case Handoff::kSameProcessor:
            ++r.handoff_same_processor;
            break;
          case Handoff::kSameCluster:
            ++r.handoff_same_cluster;
            break;
          case Handoff::kCrossCluster:
            ++r.handoff_cross_cluster;
            break;
        }
      }
      prev_tid = a.tid;
      have_prev = true;
      LockSiteStats::ClusterShare& share = r.by_cluster[a.tid / ppc];
      ++share.acquisitions;
      share.wait_ticks += static_cast<std::uint64_t>(std::llround(a.wait_us));
    }
    r.wait = StatsFromSamples(std::move(waits));

    // Queue depth: maximum number of simultaneously-open acquire spans.  A
    // two-pointer walk over the sorted arrival and departure times keeps the
    // running depth non-negative by construction -- the event-delta sweep it
    // replaces dipped negative on zero-length spans, whose departure sorted
    // ahead of the matching arrival at the same timestamp.  Only departures
    // strictly before an arrival clear a slot (a grant and the next waiter
    // arriving at the same tick did coexist at that instant; with `<` the
    // count of cleared slots also provably never exceeds i, so the depth
    // cannot underflow even when many zero-length spans share one tick).
    // Truncated spans are arrivals that never depart.
    std::vector<double> starts;
    std::vector<double> ends;
    starts.reserve(events.size());
    ends.reserve(events.size());
    for (const AcquireEvent& a : events) {
      starts.push_back(a.ts_us);
      ends.push_back(a.grant_us);
    }
    if (auto t_it = truncated_waits.find(lock); t_it != truncated_waits.end()) {
      starts.insert(starts.end(), t_it->second.begin(), t_it->second.end());
    }
    std::sort(starts.begin(), starts.end());
    std::sort(ends.begin(), ends.end());
    std::size_t max_depth = 0;
    std::size_t departed = 0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      while (departed < ends.size() && ends[departed] < starts[i]) {
        ++departed;
      }
      max_depth = std::max(max_depth, i + 1 - departed);
    }
    r.max_queue_depth = static_cast<std::uint32_t>(max_depth);

    // Critical sections: per (lock, tid), each grant pairs with the next
    // release at or after it.  Grants with no following release (run ended
    // mid-hold) are skipped.
    std::vector<double> holds;
    std::map<std::uint32_t, std::vector<const AcquireEvent*>> per_tid;
    for (const AcquireEvent& a : events) {
      per_tid[a.tid].push_back(&a);
    }
    for (const auto& [tid, grants] : per_tid) {
      auto it = releases.find({lock, tid});
      if (it == releases.end()) {
        continue;
      }
      const std::vector<double>& rel = it->second;
      std::size_t ri = 0;
      for (const AcquireEvent* a : grants) {  // already grant-sorted
        while (ri < rel.size() && rel[ri] < a->grant_us - 1e-9) {
          ++ri;
        }
        if (ri == rel.size()) {
          break;
        }
        holds.push_back(rel[ri] - a->grant_us);
        ++ri;
      }
    }
    r.hold = StatsFromSamples(std::move(holds));
    sites_.push_back(std::move(r));
  }
  return true;
}

bool ProfileReport::AddSites(const SiteTable& table, std::string* error) {
  JsonValue doc;
  std::string parse_error;
  if (!hmetrics::JsonParser::Parse(table.ToJson(), &doc, &parse_error)) {
    if (error != nullptr) {
      *error = "SiteTable serialization round-trip failed: " + parse_error;
    }
    return false;
  }
  return AddLockProf(doc, error);
}

void ProfileReport::Rank() {
  std::stable_sort(sites_.begin(), sites_.end(), [](const SiteReport& a, const SiteReport& b) {
    return a.total_wait_us() > b.total_wait_us();
  });
}

std::map<std::uint32_t, ProfileReport::ClusterTotal> ProfileReport::ClusterTotals() const {
  std::map<std::uint32_t, ClusterTotal> totals;
  for (const SiteReport& s : sites_) {
    const double scale = s.ticks_per_us > 0 ? 1.0 / s.ticks_per_us : 1.0;
    for (const auto& [cluster, share] : s.by_cluster) {
      ClusterTotal& t = totals[cluster];
      t.acquisitions += share.acquisitions;
      t.wait_us += static_cast<double>(share.wait_ticks) * scale;
    }
  }
  return totals;
}

std::string ProfileReport::RenderText(std::size_t top) const {
  std::string out;
  std::uint64_t total_acq = 0;
  for (const SiteReport& s : sites_) {
    total_acq += s.acquisitions;
  }
  Append(&out, "hprof contention report: %zu site%s, %llu acquisitions\n\n", sites_.size(),
         sites_.size() == 1 ? "" : "s", static_cast<unsigned long long>(total_acq));

  Append(&out, "RANKED BY TOTAL WAIT TIME\n");
  Append(&out, "%4s  %-34s %10s %10s %7s %5s %12s %12s %14s\n", "rank", "lock", "acq", "cont",
         "cont%", "maxq", "wait-mean", "wait-p95", "total-wait");
  const std::size_t limit = top == 0 ? sites_.size() : std::min(top, sites_.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const SiteReport& s = sites_[i];
    Append(&out, "%4zu  %-34s %10llu %10llu %6.1f%% %5u %10.2fus %10.2fus %12.1fus\n", i + 1,
           s.name.c_str(), static_cast<unsigned long long>(s.acquisitions),
           static_cast<unsigned long long>(s.contended), s.contended_pct(), s.max_queue_depth,
           s.wait.mean_us, s.wait.p95_us, s.total_wait_us());
  }
  if (limit < sites_.size()) {
    Append(&out, "      ... %zu more site%s\n", sites_.size() - limit,
           sites_.size() - limit == 1 ? "" : "s");
  }

  Append(&out, "\nNUMA HANDOFFS (owner transitions)\n");
  Append(&out, "%-40s %11s %13s %14s %8s\n", "lock", "same-proc", "same-cluster", "cross-cluster",
         "remote%");
  for (std::size_t i = 0; i < limit; ++i) {
    const SiteReport& s = sites_[i];
    Append(&out, "%-40s %11llu %13llu %14llu %7.1f%%\n", s.name.c_str(),
           static_cast<unsigned long long>(s.handoff_same_processor),
           static_cast<unsigned long long>(s.handoff_same_cluster),
           static_cast<unsigned long long>(s.handoff_cross_cluster), s.remote_handoff_pct());
  }

  const auto clusters = ClusterTotals();
  double cluster_wait_total = 0;
  for (const auto& [cluster, t] : clusters) {
    cluster_wait_total += t.wait_us;
  }
  Append(&out, "\nPER-CLUSTER CONTENTION\n");
  Append(&out, "%-8s %13s %16s %12s\n", "cluster", "acquisitions", "total-wait", "wait-share");
  for (const auto& [cluster, t] : clusters) {
    Append(&out, "%-8u %13llu %14.1fus %11.1f%%\n", cluster,
           static_cast<unsigned long long>(t.acquisitions), t.wait_us,
           cluster_wait_total > 0 ? 100.0 * t.wait_us / cluster_wait_total : 0.0);
  }

  Append(&out, "\nCRITICAL SECTIONS\n");
  Append(&out, "%-40s %10s %10s %10s %10s %10s\n", "lock", "count", "mean", "p50", "p95", "max");
  for (std::size_t i = 0; i < limit; ++i) {
    const SiteReport& s = sites_[i];
    Append(&out, "%-40s %10llu %8.2fus %8.2fus %8.2fus %8.2fus\n", s.name.c_str(),
           static_cast<unsigned long long>(s.hold.count), s.hold.mean_us, s.hold.p50_us,
           s.hold.p95_us, s.hold.max_us);
  }
  return out;
}

namespace {

void WriteHistStats(hmetrics::JsonWriter* w, const HistStats& s) {
  w->BeginObject();
  w->Field("count", s.count);
  w->Field("sum_us", s.sum_us);
  w->Field("min_us", s.min_us);
  w->Field("max_us", s.max_us);
  w->Field("mean_us", s.mean_us);
  w->Field("p50_us", s.p50_us);
  w->Field("p95_us", s.p95_us);
  w->Field("p99_us", s.p99_us);
  w->EndObject();
}

}  // namespace

std::string ProfileReport::RenderJson() const {
  hmetrics::JsonWriter w;
  w.BeginObject();
  w.Field("schema", kReportSchema);
  w.Key("sites");
  w.BeginArray();
  for (const SiteReport& s : sites_) {
    w.BeginObject();
    w.Field("name", s.name);
    w.Field("procs_per_cluster", std::uint64_t{s.procs_per_cluster});
    w.Field("acquisitions", s.acquisitions);
    w.Field("contended", s.contended);
    w.Field("contended_pct", s.contended_pct());
    w.Field("max_queue_depth", std::uint64_t{s.max_queue_depth});
    w.Field("total_wait_us", s.total_wait_us());
    w.Key("wait");
    WriteHistStats(&w, s.wait);
    w.Key("hold");
    WriteHistStats(&w, s.hold);
    w.Key("handoffs");
    w.BeginObject();
    w.Field("same_processor", s.handoff_same_processor);
    w.Field("same_cluster", s.handoff_same_cluster);
    w.Field("cross_cluster", s.handoff_cross_cluster);
    w.Field("remote_pct", s.remote_handoff_pct());
    w.EndObject();
    w.Key("by_cluster");
    w.BeginObject();
    const double scale = s.ticks_per_us > 0 ? 1.0 / s.ticks_per_us : 1.0;
    for (const auto& [cluster, share] : s.by_cluster) {
      w.Key(std::to_string(cluster));
      w.BeginObject();
      w.Field("acquisitions", share.acquisitions);
      w.Field("wait_us", static_cast<double>(share.wait_ticks) * scale);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("clusters");
  w.BeginObject();
  for (const auto& [cluster, t] : ClusterTotals()) {
    w.Key(std::to_string(cluster));
    w.BeginObject();
    w.Field("acquisitions", t.acquisitions);
    w.Field("wait_us", t.wait_us);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace hprof
