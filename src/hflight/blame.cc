#include "src/hflight/blame.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace hflight {
namespace {

std::uint64_t U64(const hmetrics::JsonValue& v) {
  return v.is_number() ? static_cast<std::uint64_t>(v.number) : 0;
}

std::string FormatUs(double ticks, double ticks_per_us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f", ticks / (ticks_per_us > 0 ? ticks_per_us : 1.0));
  return buf;
}

std::string FormatPct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", 100.0 * frac);
  return buf;
}

}  // namespace

std::uint32_t BlameReport::InternSite(const std::string& name) {
  auto it = site_ids_.find(name);
  if (it != site_ids_.end()) {
    return it->second;
  }
  const std::uint32_t id = static_cast<std::uint32_t>(site_names_.size());
  site_names_.push_back(name);
  site_ids_.emplace(name, id);
  return id;
}

bool BlameReport::AddFlight(const hmetrics::JsonValue& doc, std::string* error) {
  if (!doc.is_object() || doc["schema"].string_value != kFlightSchema) {
    if (error != nullptr) {
      *error = std::string("not a ") + kFlightSchema + " document";
    }
    return false;
  }
  ticks_per_us_ = doc["ticks_per_us"].is_number() ? doc["ticks_per_us"].number : 1.0;
  if (doc["tail_quantile"].is_number()) {
    tail_quantile_ = doc["tail_quantile"].number;
  }
  const hmetrics::JsonValue& promoted = doc["promoted"];
  if (!promoted.is_array()) {
    if (error != nullptr) {
      *error = "flight document has no promoted array";
    }
    return false;
  }
  for (const hmetrics::JsonValue& p : promoted.array) {
    TailRecord rec;
    rec.id = U64(p["id"]);
    rec.parent = U64(p["parent"]);
    rec.cluster = static_cast<std::uint32_t>(U64(p["cluster"]));
    rec.fate = p["fate"].string_value;
    rec.total = U64(p["total"]);
    rec.lock_wait_cross = U64(p["lock_wait_cross"]);
    rec.retries = static_cast<std::uint32_t>(U64(p["retries"]));
    rec.rpc_retransmits = static_cast<std::uint32_t>(U64(p["rpc_retransmits"]));
    const hmetrics::JsonValue& phases = p["phases"];
    for (int i = 0; i < kNumPhases; ++i) {
      rec.phase[i] = U64(phases[PhaseName(static_cast<Phase>(i))]);
    }
    const hmetrics::JsonValue& waits = p["site_waits"];
    if (waits.is_array()) {
      for (const hmetrics::JsonValue& sw : waits.array) {
        SiteWait w;
        w.site = InternSite(sw["site"].string_value);
        w.ticks = U64(sw["ticks"]);
        w.cross_ticks = U64(sw["cross_ticks"]);
        rec.site_waits.push_back(w);
      }
    }
    tail_.push_back(std::move(rec));
  }
  have_flight_ = true;
  return true;
}

bool BlameReport::AddLockProf(const hmetrics::JsonValue& doc, std::string* error) {
  hprof::ProfileReport parsed;
  if (!parsed.AddLockProf(doc, error)) {
    return false;
  }
  for (hprof::SiteReport& row : parsed.sites()) {
    lockprof_[row.name] = std::move(row);
  }
  return true;
}

bool BlameReport::Analyze(std::string* error) {
  if (!have_flight_) {
    if (error != nullptr) {
      *error = "no flight document loaded";
    }
    return false;
  }
  tail_total_ = 0;
  cross_ticks_ = 0;
  max_reconcile_error_ = 0.0;
  for (int i = 0; i < kNumPhases; ++i) {
    phase_ticks_[i] = 0;
  }
  std::vector<std::uint64_t> site_ticks(site_names_.size(), 0);
  std::vector<std::uint64_t> site_cross(site_names_.size(), 0);

  for (const TailRecord& rec : tail_) {
    std::uint64_t phase_sum = 0;
    for (int i = 0; i < kNumPhases; ++i) {
      phase_ticks_[i] += rec.phase[i];
      phase_sum += rec.phase[i];
    }
    tail_total_ += rec.total;
    cross_ticks_ += rec.lock_wait_cross;
    // The 1% reconciliation gate: a record whose ledger does not re-add to
    // its measured latency is evidence of corruption, not of a slow phase.
    const double denom = rec.total == 0 ? 1.0 : static_cast<double>(rec.total);
    const double err =
        std::fabs(static_cast<double>(phase_sum) - static_cast<double>(rec.total)) / denom;
    max_reconcile_error_ = std::max(max_reconcile_error_, err);
    if (err > 0.01) {
      if (error != nullptr) {
        *error = "record " + std::to_string(rec.id) + ": phases sum to " +
                 std::to_string(phase_sum) + " ticks but total is " +
                 std::to_string(rec.total) + " (reconciliation error > 1%)";
      }
      return false;
    }
    for (const SiteWait& sw : rec.site_waits) {
      site_ticks[sw.site] += sw.ticks;
      site_cross[sw.site] += sw.cross_ticks;
    }
  }

  sites_.clear();
  for (std::size_t i = 0; i < site_names_.size(); ++i) {
    if (site_ticks[i] == 0) {
      continue;
    }
    SiteBlame b;
    b.name = site_names_[i];
    b.tail_wait_ticks = site_ticks[i];
    b.tail_cross_ticks = site_cross[i];
    auto it = lockprof_.find(b.name);
    if (it != lockprof_.end()) {
      b.have_lockprof = true;
      b.acquisitions = it->second.acquisitions;
      b.contended = it->second.contended;
      b.remote_handoff_pct = it->second.remote_handoff_pct();
    }
    sites_.push_back(std::move(b));
  }
  std::stable_sort(sites_.begin(), sites_.end(), [](const SiteBlame& a, const SiteBlame& b) {
    return a.tail_wait_ticks > b.tail_wait_ticks;
  });
  return true;
}

double BlameReport::cross_cluster_share() const {
  const std::uint64_t lw = phase_ticks_[static_cast<int>(Phase::kLockWait)];
  return lw == 0 ? 0.0 : static_cast<double>(cross_ticks_) / static_cast<double>(lw);
}

std::string BlameReport::RenderText(std::size_t top) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "hwhy: tail blame over %llu promoted records (q=%.4g, ticks_per_us=%.4g)\n",
                static_cast<unsigned long long>(tail_.size()), tail_quantile_, ticks_per_us_);
  out += line;
  if (tail_.empty()) {
    out += "  (no tail records: run longer or lower the warmup/quantile)\n";
    return out;
  }
  std::snprintf(line, sizeof(line),
                "  tail latency sum: %s us   max reconcile error: %.4f%%\n",
                FormatUs(static_cast<double>(tail_total_), ticks_per_us_).c_str(),
                100.0 * max_reconcile_error_);
  out += line;
  out += "\n  phase        share      us\n";
  out += "  -----------  ------  ----------\n";
  for (int i = 0; i < kNumPhases; ++i) {
    const Phase p = static_cast<Phase>(i);
    std::snprintf(line, sizeof(line), "  %-11s  %s  %10s\n", PhaseName(p),
                  FormatPct(phase_share(p)).c_str(),
                  FormatUs(static_cast<double>(phase_ticks_[i]), ticks_per_us_).c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "\n  cross-cluster share of tail lock_wait: %s\n",
                FormatPct(cross_cluster_share()).c_str());
  out += line;
  if (!sites_.empty()) {
    out += "\n  top lock sites by tail contribution\n";
    out += "  site                        tail us   cross%   sys acq  sys cont%  sys remote%\n";
    out += "  --------------------------  --------  -------  -------  ---------  -----------\n";
    std::size_t n = top == 0 ? sites_.size() : std::min(top, sites_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const SiteBlame& s = sites_[i];
      if (s.have_lockprof) {
        const double cont_pct =
            s.acquisitions == 0 ? 0.0
                                : 100.0 * static_cast<double>(s.contended) /
                                      static_cast<double>(s.acquisitions);
        std::snprintf(line, sizeof(line), "  %-26s  %8s  %6.1f%%  %7llu  %8.1f%%  %10.1f%%\n",
                      s.name.c_str(),
                      FormatUs(static_cast<double>(s.tail_wait_ticks), ticks_per_us_).c_str(),
                      s.cross_pct(), static_cast<unsigned long long>(s.acquisitions), cont_pct,
                      s.remote_handoff_pct);
      } else {
        std::snprintf(line, sizeof(line), "  %-26s  %8s  %6.1f%%        -          -            -\n",
                      s.name.c_str(),
                      FormatUs(static_cast<double>(s.tail_wait_ticks), ticks_per_us_).c_str(),
                      s.cross_pct());
      }
      out += line;
    }
  }
  return out;
}

std::string BlameReport::RenderJson() const {
  hmetrics::JsonWriter w;
  w.BeginObject();
  w.Field("schema", kBlameSchema);
  w.Field("ticks_per_us", ticks_per_us_);
  w.Field("tail_quantile", tail_quantile_);
  w.Field("tail_records", static_cast<std::uint64_t>(tail_.size()));
  w.Field("tail_total_ticks", tail_total_);
  w.Field("max_reconcile_error", max_reconcile_error_);
  w.Field("cross_cluster_share", cross_cluster_share());
  w.Key("phase_share");
  w.BeginObject();
  for (int i = 0; i < kNumPhases; ++i) {
    w.Field(PhaseName(static_cast<Phase>(i)), phase_share(static_cast<Phase>(i)));
  }
  w.EndObject();
  w.Key("phase_ticks");
  w.BeginObject();
  for (int i = 0; i < kNumPhases; ++i) {
    w.Field(PhaseName(static_cast<Phase>(i)), phase_ticks_[i]);
  }
  w.EndObject();
  w.Key("sites");
  w.BeginArray();
  for (const SiteBlame& s : sites_) {
    w.BeginObject();
    w.Field("name", s.name);
    w.Field("tail_wait_ticks", s.tail_wait_ticks);
    w.Field("tail_cross_ticks", s.tail_cross_ticks);
    if (s.have_lockprof) {
      w.Field("acquisitions", s.acquisitions);
      w.Field("contended", s.contended);
      w.Field("remote_handoff_pct", s.remote_handoff_pct);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

bool BlameReport::SelfTest(std::string* error) {
  // A two-cluster run, recorded through the real recorder so the self-test
  // exercises Open/stamps/Close/promotion/export and the parser in one pass.
  FlightConfig cfg;
  cfg.clusters = 2;
  cfg.ring_size = 64;
  cfg.ticks_per_us = 1.0;
  cfg.tail_quantile = 0.9;
  cfg.warmup_closes = 10;
  cfg.seed = 42;
  FlightRecorder rec(cfg);
  const std::uint32_t table_site = rec.InternSite("svc.table");
  const std::uint32_t depot_site = rec.InternSite("alloc/slab-depot");

  // 80 fast requests (total 100 ticks) and 20 slow ones (total 1000 ticks,
  // of which 400 lock_wait -- 300 on svc.table with 150 cross -- 100 hold,
  // 200 rpc).  At q90 the promotion threshold settles at 1000, so exactly
  // the slow cohort is promoted.
  for (int i = 0; i < 100; ++i) {
    const bool slow = i % 5 == 4;
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 10000;
    FlightRecord* r = rec.Open(static_cast<std::uint32_t>(i % 2), base);
    r->enqueue = base + (slow ? 50 : 10);
    r->start = base + (slow ? 100 : 20);
    r->exec = base + (slow ? 150 : 30);
    if (slow) {
      r->AddLockWait(table_site, 300, /*cross=*/false);
      r->site_waits[0].cross_ticks = 150;
      r->lock_wait_cross = 150;
      r->AddLockWait(depot_site, 100, /*cross=*/true);
      r->AddHold(100);
      r->AddRpc(200, /*retransmits=*/1);
      r->done = base + 950;
    } else {
      r->AddHold(20);
      r->done = base + 90;
    }
    rec.Close(r, Fate::kOk, base + (slow ? 1000 : 100));
  }

  hmetrics::JsonValue flight_doc;
  if (!hmetrics::JsonParser::Parse(rec.ToJson(), &flight_doc, error)) {
    return false;
  }

  // A matching lockprof doc, exercising the by-name merge.
  hmetrics::JsonValue lockprof_doc;
  const std::string lockprof_json =
      "{\"schema\":\"hurricane-lockprof/1\",\"ticks_per_us\":1,\"sites\":["
      "{\"name\":\"svc.table\",\"acquisitions\":1000,\"contended\":400,"
      "\"handoffs\":{\"same_processor\":100,\"same_cluster\":500,\"cross_cluster\":400}}]}";
  if (!hmetrics::JsonParser::Parse(lockprof_json, &lockprof_doc, error)) {
    return false;
  }

  BlameReport report;
  if (!report.AddFlight(flight_doc, error) || !report.AddLockProf(lockprof_doc, error) ||
      !report.Analyze(error)) {
    return false;
  }

  auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = "self-test: " + what;
    }
    return false;
  };
  if (report.tail_records() == 0) {
    return fail("no records promoted");
  }
  // Every promoted record is a slow one: 1000 ticks total, 400 lock_wait.
  const double lw = report.phase_share(Phase::kLockWait);
  if (std::fabs(lw - 0.4) > 1e-9) {
    return fail("lock_wait share " + std::to_string(lw) + " != 0.4");
  }
  if (std::fabs(report.phase_share(Phase::kHold) - 0.1) > 1e-9 ||
      std::fabs(report.phase_share(Phase::kRpc) - 0.2) > 1e-9) {
    return fail("hold/rpc shares off");
  }
  if (report.max_reconcile_error() > 1e-9) {
    return fail("reconciliation error nonzero");
  }
  if (report.sites().empty() || report.sites()[0].name != "svc.table") {
    return fail("svc.table not the top blamed site");
  }
  if (!report.sites()[0].have_lockprof || report.sites()[0].acquisitions != 1000) {
    return fail("lockprof merge missing");
  }
  // 150 cross of 300 on svc.table plus 100 cross of 100 on the depot:
  // cross share = 250 / 400.
  if (std::fabs(report.cross_cluster_share() - 0.625) > 1e-9) {
    return fail("cross-cluster share " + std::to_string(report.cross_cluster_share()) +
                " != 0.625");
  }
  // Text and JSON renderers must not crash and must mention the top site.
  if (report.RenderText(5).find("svc.table") == std::string::npos) {
    return fail("RenderText missing top site");
  }
  if (report.RenderJson().find(kBlameSchema) == std::string::npos) {
    return fail("RenderJson missing schema");
  }
  return true;
}

}  // namespace hflight
