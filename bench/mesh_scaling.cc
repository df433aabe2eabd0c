// hmesh scaling and chaos campaign (ISSUE 10 tentpole bench).
//
// Three sections, all pure simulation (deterministic, regression-gated):
//
//   read-mostly sweep (95/5, zipf 0.99): weak scaling over 1 -> 8 machines at
//     a fixed per-machine offered rate.  Hot keys are replicated on every
//     member, so reads stay machine-local and adding machines adds capacity
//     near-linearly *if* the mesh absorbs the cross-machine write broadcasts
//     and forwarded cold reads.  Gate: throughput at 8 machines >= 6x the
//     single-machine run.
//
//   write-heavy sweep (50/50): the same mesh under a write-dominated load.
//     Every hot-key put broadcasts a versioned update to all N-1 replicas
//     before acking, so throughput *must* fall below the read-mostly curve
//     and the update amplification (updates applied per put) must track the
//     member count.  Gate: write-heavy throughput at 8 machines is below
//     read-mostly at 8 machines.
//
//   chaos campaign (4 machines): kill one member at steady state under load
//     with a lossy transport, recover it, re-sync.  Gates: every acked write
//     applied at exactly one version (exact-once), the highest acked version
//     of every key survives on the final owner (zero lost ops), failover
//     detection and re-sync fit their configured budgets, and the whole
//     campaign replays bit-identically (equal mesh digests across two runs).
//
// --why attaches the flight recorder to the 4-machine read-mostly run and
// prints the tail-blame report (cross-machine RPC legs appear as causally
// linked child records).  --profile attaches per-machine store lock sites
// and prints the hprof contention report.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hflight/blame.h"
#include "src/hflight/flight.h"
#include "src/hmesh/client.h"
#include "src/hmesh/mesh.h"
#include "src/hmetrics/bench_main.h"
#include "src/hmetrics/bench_report.h"
#include "src/hmetrics/registry.h"
#include "src/hprof/lock_site.h"
#include "src/hprof/report.h"

namespace {

using hmesh::AckedWrite;
using hmesh::ClientConfig;
using hmesh::ClientStats;
using hmesh::Mesh;
using hmesh::MeshConfig;
using hsim::Tick;
using hsim::TicksToUs;
using hsim::UsToTicks;

template <typename Pred>
bool DriveUntil(hsim::Engine& eng, Tick deadline, Pred pred) {
  while (!pred() && eng.now() < deadline) {
    if (eng.RunUntil(eng.now() + UsToTicks(100))) {
      break;
    }
  }
  return pred();
}

struct SweepPoint {
  std::uint32_t machines = 0;
  double offered_ops_s = 0;
  double tp_ops_s = 0;
  double local_frac = 0;
  double p99_us = 0;
  double update_amp = 0;  // replica updates applied per put served
  std::uint64_t completed = 0;
  std::uint64_t forwarded = 0;
  bool done = false;
};

SweepPoint RunSweepPoint(std::uint32_t machines, double read_fraction, double rate_per_s,
                         std::uint64_t ops, hflight::FlightRecorder* flight,
                         hprof::SiteTable* sites) {
  hsim::Engine eng;
  MeshConfig mc;
  mc.machines = machines;
  Mesh mesh(&eng, mc);
  if (flight != nullptr) {
    mesh.AttachFlightRecorder(flight);
  }
  if (sites != nullptr) {
    mesh.AttachLockProfiler(sites);
  }
  mesh.Start();

  ClientConfig cc;
  cc.workload.num_clusters = machines;
  cc.workload.keys_per_cluster = mc.keys_per_machine;
  cc.workload.read_fraction = read_fraction;
  cc.workload.seed = 2024;
  cc.ops = ops;
  cc.rate_per_s = rate_per_s;
  std::vector<ClientStats> stats(machines);
  for (std::uint32_t m = 0; m < machines; ++m) {
    eng.Spawn(RunClient(&mesh, m, cc, &stats[m]));
  }

  SweepPoint pt;
  pt.machines = machines;
  pt.offered_ops_s = rate_per_s * machines;
  pt.done = DriveUntil(eng, UsToTicks(10'000'000), [&] {
    return std::all_of(stats.begin(), stats.end(),
                       [](const ClientStats& s) { return s.done; });
  });
  const Tick end = eng.now();

  hmetrics::Histogram merged;
  std::uint64_t local = 0;
  std::uint64_t puts = 0;
  std::uint64_t updates = 0;
  for (std::uint32_t m = 0; m < machines; ++m) {
    pt.completed += stats[m].completed;
    local += stats[m].local_reads;
    pt.forwarded += stats[m].forwarded_reads;
    merged.Merge(stats[m].latency);
    puts += mesh.node_counters(m).puts_served;
    updates += mesh.node_counters(m).updates_applied;
  }
  const std::uint64_t reads = local + pt.forwarded;
  pt.local_frac = reads == 0 ? 0 : static_cast<double>(local) / static_cast<double>(reads);
  pt.update_amp = puts == 0 ? 0 : static_cast<double>(updates) / static_cast<double>(puts);
  pt.tp_ops_s = end == 0 ? 0
                         : static_cast<double>(pt.completed) / (TicksToUs(end) / 1e6);
  pt.p99_us = static_cast<double>(merged.percentile(99)) / 1000.0;

  mesh.Shutdown();
  eng.RunUntilIdle();
  return pt;
}

struct ChaosOutcome {
  bool done = false;
  bool exact_once = true;
  std::uint64_t lost_ops = 0;
  std::uint64_t completed = 0;
  std::uint64_t issued = 0;
  std::uint64_t failovers = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t put_dedups = 0;
  double detect_us = 0;
  double resync_us = 0;
  std::uint64_t digest = 0;
};

ChaosOutcome RunChaos(std::uint64_t ops, hmetrics::Registry* registry) {
  constexpr std::uint32_t kMachines = 4;
  constexpr std::uint32_t kVictim = 3;
  const Tick kill_at = UsToTicks(2'000);
  const Tick recover_at = UsToTicks(6'000);

  hsim::Engine eng;
  MeshConfig mc;
  mc.machines = kMachines;
  Mesh mesh(&eng, mc);
  hsim::FaultConfig faults;
  faults.drop_request = 0.01;
  faults.drop_reply = 0.01;
  faults.dup_request = 0.005;
  faults.seed = 1234;
  mesh.set_fault_plan(faults);
  mesh.Start();

  ClientConfig cc;
  cc.workload.num_clusters = kMachines;
  cc.workload.keys_per_cluster = mc.keys_per_machine;
  cc.workload.read_fraction = 0.8;
  cc.workload.seed = 77;
  cc.ops = ops;
  cc.rate_per_s = 80'000;
  std::vector<ClientStats> stats(kMachines - 1);
  for (std::uint32_t m = 0; m < kMachines - 1; ++m) {
    eng.Spawn(RunClient(&mesh, m, cc, &stats[m]));
  }
  eng.Spawn(mesh.KillAt(kill_at, kVictim));
  eng.Spawn(mesh.RecoverAt(recover_at, kVictim));

  ChaosOutcome out;
  out.done = DriveUntil(eng, UsToTicks(20'000'000), [&] {
    return std::all_of(stats.begin(), stats.end(),
                       [](const ClientStats& s) { return s.done; }) &&
           mesh.timeline(kVictim).synced_at != 0;
  });
  DriveUntil(eng, UsToTicks(21'000'000), [&] { return mesh.Quiescent(); });

  std::vector<AckedWrite> acked;
  for (std::uint32_t m = 0; m < kMachines - 1; ++m) {
    out.issued += stats[m].issued;
    out.completed += stats[m].completed;
    acked.insert(acked.end(), stats[m].acked_writes.begin(), stats[m].acked_writes.end());
  }
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    out.put_dedups += mesh.node_counters(m).put_dedups;
  }

  // Gate 1: exact-once -- one applied version per acked op.
  for (const AckedWrite& w : acked) {
    const auto it = mesh.op_versions().find(w.op_id);
    if (it == mesh.op_versions().end() || it->second.size() != 1 ||
        it->second[0] != w.version) {
      out.exact_once = false;
    }
  }
  // Gate 2: zero lost ops -- highest acked version of every key on its owner.
  std::map<std::uint64_t, AckedWrite> newest;
  for (const AckedWrite& w : acked) {
    auto [it, inserted] = newest.emplace(w.key, w);
    if (!inserted && w.version > it->second.version) {
      it->second = w;
    }
  }
  for (const auto& [key, w] : newest) {
    const Mesh::Entry* e = mesh.Lookup(mesh.ring().OwnerOf(key), key);
    if (e == nullptr || e->version != w.version || e->value != w.value) {
      ++out.lost_ops;
    }
  }
  const Mesh::Timeline& tl = mesh.timeline(kVictim);
  out.detect_us = TicksToUs(tl.failover_at - tl.killed_at);
  out.resync_us = TicksToUs(tl.synced_at - tl.recover_at);
  out.failovers = mesh.failovers();
  out.resyncs = mesh.resyncs();
  out.digest = mesh.Digest();
  if (registry != nullptr) {
    mesh.PublishCounters(registry);
  }
  mesh.Shutdown();
  eng.RunUntilIdle();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);

  const std::uint64_t sweep_ops = opts.smoke ? 400 : 1500;
  const std::uint64_t write_ops = opts.smoke ? 250 : 600;
  const std::uint64_t chaos_ops = opts.smoke ? 400 : 900;
  const double read_rate = 150'000;  // per machine, below per-member capacity
  const double write_rate = 50'000;

  hmetrics::BenchReport report("mesh_scaling");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  report.SetParam("machines_max", 8);
  report.SetParam("read_rate_per_machine", read_rate);
  report.SetParam("write_rate_per_machine", write_rate);

  // --- read-mostly weak scaling ---------------------------------------------
  std::printf("mesh read-mostly weak scaling (95/5, %.0fk ops/s per machine)\n",
              read_rate / 1000);
  std::printf("  %-9s %12s %12s %9s %8s %8s\n", "machines", "offered/s", "achieved/s",
              "speedup", "local%", "p99_us");
  auto& read_series = report.AddSeries("mesh_scaling", {{"workload", "read_mostly"}});
  double tp1 = 0;
  double tp8 = 0;
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    const SweepPoint pt = RunSweepPoint(n, 0.95, read_rate, sweep_ops, nullptr, nullptr);
    if (n == 1) {
      tp1 = pt.tp_ops_s;
    }
    if (n == 8) {
      tp8 = pt.tp_ops_s;
    }
    const double speedup = tp1 == 0 ? 0 : pt.tp_ops_s / tp1;
    std::printf("  %-9u %12.0f %12.0f %8.2fx %7.1f%% %8.1f%s\n", n, pt.offered_ops_s,
                pt.tp_ops_s, speedup, pt.local_frac * 100, pt.p99_us,
                pt.done ? "" : "  [DID NOT DRAIN]");
    read_series.AddPoint({{"machines", static_cast<double>(n)},
                          {"offered_ops_s", pt.offered_ops_s},
                          {"tp_ops_s", pt.tp_ops_s},
                          {"speedup", speedup},
                          {"frac_local", pt.local_frac},
                          {"update_amp", pt.update_amp},
                          {"completed", static_cast<double>(pt.completed)}});
  }
  const double read_speedup_8 = tp1 == 0 ? 0 : tp8 / tp1;

  // --- write-heavy broadcast cost -------------------------------------------
  std::printf("\nmesh write-heavy broadcast cost (50/50, %.0fk ops/s per machine)\n",
              write_rate / 1000);
  std::printf("  %-9s %12s %12s %11s\n", "machines", "offered/s", "achieved/s",
              "updates/put");
  auto& write_series = report.AddSeries("mesh_scaling", {{"workload", "write_heavy"}});
  double write_tp8 = 0;
  double read_tp8_at_write_rate = tp8;
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    const SweepPoint pt = RunSweepPoint(n, 0.5, write_rate, write_ops, nullptr, nullptr);
    if (n == 8) {
      write_tp8 = pt.tp_ops_s;
    }
    std::printf("  %-9u %12.0f %12.0f %11.2f%s\n", n, pt.offered_ops_s, pt.tp_ops_s,
                pt.update_amp, pt.done ? "" : "  [DID NOT DRAIN]");
    write_series.AddPoint({{"machines", static_cast<double>(n)},
                           {"offered_ops_s", pt.offered_ops_s},
                           {"tp_ops_s", pt.tp_ops_s},
                           {"update_amp", pt.update_amp},
                           {"completed", static_cast<double>(pt.completed)}});
  }

  // --- chaos campaign --------------------------------------------------------
  std::printf("\nmesh chaos campaign (4 machines, kill+recover under lossy load)\n");
  hmetrics::Registry registry;
  const ChaosOutcome a = RunChaos(chaos_ops, &registry);
  const ChaosOutcome b = RunChaos(chaos_ops, nullptr);  // replay check
  const bool replay_identical = a.digest == b.digest;
  std::printf("  completed %llu/%llu  failovers=%llu resyncs=%llu dedups=%llu\n",
              static_cast<unsigned long long>(a.completed),
              static_cast<unsigned long long>(a.issued),
              static_cast<unsigned long long>(a.failovers),
              static_cast<unsigned long long>(a.resyncs),
              static_cast<unsigned long long>(a.put_dedups));
  std::printf("  exact_once=%s lost_ops=%llu detect=%.0fus resync=%.0fus replay=%s\n",
              a.exact_once ? "yes" : "NO", static_cast<unsigned long long>(a.lost_ops),
              a.detect_us, a.resync_us, replay_identical ? "identical" : "DIVERGED");
  std::printf("  cross-machine packets (hmetrics mesh.traffic.src_dst):\n");
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::printf("    m%u ->", s);
    for (std::uint32_t t = 0; t < 4; ++t) {
      const std::string name =
          "mesh.traffic." + std::to_string(s) + "_" + std::to_string(t);
      std::printf(" %8llu",
                  static_cast<unsigned long long>(registry.counter(name).value()));
    }
    std::printf("\n");
  }

  auto& chaos_series = report.AddSeries("mesh_chaos", {{"scenario", "kill_recover"}});
  chaos_series.AddPoint({{"machines", 4.0},
                         {"completed", static_cast<double>(a.completed)},
                         {"issued", static_cast<double>(a.issued)},
                         {"failovers", static_cast<double>(a.failovers)},
                         {"resyncs", static_cast<double>(a.resyncs)},
                         {"put_dedups", static_cast<double>(a.put_dedups)},
                         {"detect_us", a.detect_us},
                         {"resync_us", a.resync_us}});

  // --- gates ------------------------------------------------------------------
  const bool gate_speedup = read_speedup_8 >= 6.0;
  const bool gate_write_below = write_tp8 < read_tp8_at_write_rate;
  const bool gate_chaos = a.exact_once && a.lost_ops == 0 && a.completed == a.issued &&
                          a.detect_us <= 3000 && a.resync_us <= 10'000 && replay_identical;
  std::printf("\ngates: read_speedup_8=%.2f (>=6: %s)  write_below_read=%s  chaos=%s\n",
              read_speedup_8, gate_speedup ? "pass" : "FAIL",
              gate_write_below ? "pass" : "FAIL", gate_chaos ? "pass" : "FAIL");

  auto& gates = report.AddSeries("mesh_gates", {{"scenario", "all"}});
  gates.AddPoint({{"machines", 8.0},
                  {"read_speedup_8", read_speedup_8},
                  {"frac_write_below_read", gate_write_below ? 1.0 : 0.0},
                  {"chaos_exact_once", a.exact_once ? 1.0 : 0.0},
                  {"chaos_lost_ops", static_cast<double>(a.lost_ops)},
                  {"chaos_detect_us", a.detect_us},
                  {"chaos_resync_us", a.resync_us},
                  {"chaos_replay_identical", replay_identical ? 1.0 : 0.0}});

  // --- optional instrumented runs -------------------------------------------
  if (opts.profile) {
    hprof::SiteTable sites(/*ticks_per_us=*/16.0);  // simulated time
    (void)RunSweepPoint(4, 0.95, read_rate, opts.smoke ? 300 : 1000, nullptr, &sites);
    if (!opts.profile_path.empty()) {
      if (!hmetrics::WriteJsonFile(opts.profile_path, sites.ToJson())) {
        return 1;
      }
      std::printf("\nwrote lockprof export to %s\n", opts.profile_path.c_str());
    }
    hprof::ProfileReport prof;
    std::string error;
    if (!prof.AddSites(sites, &error)) {
      std::fprintf(stderr, "hprof: %s\n", error.c_str());
      return 1;
    }
    prof.Rank();
    std::printf("\n%s", prof.RenderText().c_str());
  }
  if (opts.why) {
    hflight::FlightConfig fc;
    fc.clusters = 4;
    fc.ticks_per_us = static_cast<double>(hsim::kCyclesPerMicrosecond);
    hflight::FlightRecorder flight(fc);
    (void)RunSweepPoint(4, 0.95, read_rate, opts.smoke ? 300 : 1000, &flight, nullptr);
    const std::string flight_doc = flight.ToJson();
    if (!opts.why_path.empty()) {
      if (!hmetrics::WriteJsonFile(opts.why_path, flight_doc)) {
        return 1;
      }
      std::printf("\nwrote flight export to %s\n", opts.why_path.c_str());
    }
    hmetrics::JsonValue doc;
    std::string error;
    hflight::BlameReport blame;
    if (!hmetrics::JsonParser::Parse(flight_doc, &doc, &error) ||
        !blame.AddFlight(doc, &error) || !blame.Analyze(&error)) {
      std::fprintf(stderr, "hwhy analysis failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("\n%s", blame.RenderText(10).c_str());
  }

  const bool ok = gate_speedup && gate_write_below && gate_chaos;
  if (!hmetrics::WriteReport(opts, report)) {
    return 1;
  }
  return ok ? 0 : 1;
}
