// Offered load vs achieved throughput and latency for the hsvc serving
// runtime, swept across cluster counts -- the serving-layer analogue of the
// paper's Figure 7 cluster sweep.
//
// Two claims, one per load regime:
//
//   underload (0.5x capacity): adding clusters adds capacity near-linearly.
//     Each cluster gets the same per-cluster offered load; the completed
//     fraction stays ~1.0 and total achieved throughput tracks clusters.
//
//   overload (2x capacity): admission control converts excess load into
//     prompt rejections instead of queueing collapse.  The completed
//     fraction settles near capacity/offered, rejections are nonzero, and
//     tail latency stays bounded by the queue bound and the retry budget
//     rather than growing with the backlog.
//
// Pump service is token-bucket paced (ServiceConfig::service_rate_per_worker),
// so *capacity is configured*, not host-speed-dependent: the frac_* fields
// and the achieved/offered ratios are stable enough to regression-gate even
// on a loaded single-core CI host.  Wall-clock latency percentiles
// (coordinated-omission-safe, from each op's scheduled arrival) are emitted
// in a separate series that the baseline deliberately omits.

// A third section ("blame") runs a deterministic simulated contention
// scenario -- 16 processors in 4 clusters sharing one lock, each request a
// flight-recorded think/acquire/hold cycle -- for the kernel's coarse lock
// (the 35 us-capped backoff spinlock) and the NUMA-aware hmcs-t, and gates
// the hwhy headline number: the lock_wait share of the promoted p99 tail
// must be strictly lower for hmcs-t than for coarse, and every promoted
// ledger must reconcile with its end-to-end latency within 1%.  Simulated
// ticks, so the series is exact and regression-gated in BENCH_BASELINE.json.
//
// With --why the open-loop sweep below additionally runs with a flight
// recorder attached end to end (hload opens/closes records, hsvc stamps the
// admit/inbox/batch boundaries and charges lock waits via the pump's
// ScopedLedger) and prints the hwhy tail-blame report for the whole sweep;
// --why=PATH also writes the raw hurricane-flight/1 document for the CLI.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/hflight/blame.h"
#include "src/hflight/flight.h"
#include "src/hload/open_loop.h"
#include "src/hmetrics/bench_main.h"
#include "src/hsim/engine.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/machine.h"

namespace {

// --- deterministic tail-blame scenario (gated "blame" series) ---------------

// 16 simulated processors in 4 station-clusters, one shared lock.  Each
// request is one flight-recorded think/acquire/hold cycle with the stamps
// taken from simulated time, so the promoted tail -- and therefore the hwhy
// blame decomposition -- is bit-identical across hosts.
constexpr std::uint32_t kBlameProcs = 16;
constexpr std::uint32_t kBlameClusters = 4;
constexpr double kBlameQuantile = 0.99;

struct BlameOutcome {
  double frac_lock_wait_p99 = 0;  // lock_wait share of the promoted tail
  double frac_reconcile_ok = 0;   // 1.0 iff every promoted ledger reconciles
  std::uint64_t closed = 0;
  std::uint64_t tail_records = 0;
};

hsim::Task<void> BlameWorker(hsim::Processor& p, hsim::SimLock* lock,
                             hflight::FlightRecorder* recorder, std::uint32_t site_id,
                             hsim::ProcId* lock_owner, int requests) {
  constexpr hsim::ProcId kNobody = ~hsim::ProcId{0};
  for (int i = 0; i < requests; ++i) {
    // The whole cycle is one request executing: admit/inbox/batch collapse.
    hflight::FlightRecord* rec = recorder->Open(p.station(), p.now());
    rec->enqueue = rec->begin;
    rec->start = rec->begin;
    rec->exec = rec->begin;
    // Per-request service work ("other"), deterministically jittered per
    // (processor, iteration) so arrivals decorrelate: a fair FIFO lock would
    // otherwise run in a zero-variance convoy with no tail to promote.
    std::uint64_t h = (static_cast<std::uint64_t>(p.id()) << 32 |
                       static_cast<std::uint32_t>(i)) *
                      0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    co_await p.Compute(200 + (h % 400));
    const hsim::Tick wait_from = p.now();
    co_await lock->Acquire(p);
    const bool cross = *lock_owner != kNobody &&
                       *lock_owner / (kBlameProcs / kBlameClusters) !=
                           p.id() / (kBlameProcs / kBlameClusters);
    rec->AddLockWait(site_id, p.now() - wait_from, cross);
    const hsim::Tick hold_from = p.now();
    co_await p.Compute(16);  // critical section
    *lock_owner = p.id();
    co_await lock->Release(p);
    rec->AddHold(p.now() - hold_from);
    rec->done = p.now();
    recorder->Close(rec, hflight::Fate::kOk, p.now());
  }
}

BlameOutcome RunBlameScenario(hsim::LockKind kind, int requests_per_proc) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});  // 4 stations x 4
  std::unique_ptr<hsim::SimLock> lock =
      hsim::MakeSimLock(&machine, kind, /*home=*/0);

  hflight::FlightConfig cfg;
  cfg.clusters = kBlameClusters;
  cfg.ring_size = 256;
  cfg.ticks_per_us = 16.0;
  cfg.tail_quantile = kBlameQuantile;
  hflight::FlightRecorder recorder(cfg);
  const std::uint32_t site_id =
      recorder.InternSite(std::string("svc/coarse/") + hsim::LockKindName(kind));

  hsim::ProcId lock_owner = ~hsim::ProcId{0};
  for (hsim::ProcId p = 0; p < machine.num_processors(); ++p) {
    engine.Spawn(BlameWorker(machine.processor(p), lock.get(), &recorder, site_id,
                             &lock_owner, requests_per_proc));
  }
  engine.RunUntilIdle();

  BlameOutcome out;
  out.closed = recorder.closed();
  hmetrics::JsonValue doc;
  std::string error;
  hflight::BlameReport blame;
  if (hmetrics::JsonParser::Parse(recorder.ToJson(), &doc, &error) &&
      blame.AddFlight(doc, &error) && blame.Analyze(&error)) {
    out.frac_lock_wait_p99 = blame.phase_share(hflight::Phase::kLockWait);
    out.frac_reconcile_ok = blame.max_reconcile_error() <= 0.01 ? 1.0 : 0.0;
    out.tail_records = blame.tail_records();
  } else {
    std::fprintf(stderr, "blame scenario (%s): %s\n", hsim::LockKindName(kind),
                 error.c_str());
  }
  return out;
}

struct RunOutcome {
  hload::RunnerResult load;
  std::uint64_t svc_rejected = 0;
  std::uint64_t svc_expired = 0;
  std::uint64_t svc_combined = 0;
};

RunOutcome RunOne(std::uint32_t clusters, double rate_per_worker, double load_factor,
                  std::size_t ops_per_cluster, hflight::FlightRecorder* flight) {
  hsvc::ServiceConfig service_config;
  service_config.topology = hcluster::Topology{clusters, 1};
  service_config.service_rate_per_worker = rate_per_worker;
  service_config.queue_bound = 16;
  service_config.batch_max = 16;
  service_config.flight = flight;
  hsvc::Service service(service_config);

  hload::RunnerConfig config;
  config.flight = flight;
  config.workload.seed = 1234;
  config.workload.num_clusters = clusters;
  config.workload.keys_per_cluster = 64;
  config.workload.read_fraction = 0.9;
  config.workload.local_fraction = 0.8;
  // Uniform keys for the gated numbers: zipfian combining is a feature, but
  // its run-to-run variance does not belong in a regression band.
  config.workload.key_dist = hload::KeyDist::kUniform;
  config.rate_per_cluster = load_factor * rate_per_worker;
  config.ops_per_cluster = ops_per_cluster;
  // Large enough that retry backoffs never exhaust the pool: at overload the
  // excess must terminate as rejected_final (a configuration-determined
  // fraction), not as pool_exhausted (a timing-determined one).
  config.pool_size = 512;
  config.max_retries = 3;

  // Preload every key so reads exercise hit/replicate paths, not miss paths.
  for (std::uint64_t key = 0; key < config.workload.keys_per_cluster * clusters; ++key) {
    service.table().Put(key, key);
  }

  RunOutcome out;
  out.load = hload::LoadRunner(&service, config).Run();
  service.Drain();
  out.svc_rejected = service.rejected();
  out.svc_expired = service.expired();
  out.svc_combined = service.combined_gets();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("svc_throughput");
  report.SetEnv("sim", "native-host");

  // Configured capacity per worker (= per cluster: one worker per cluster
  // here).  The paced pump makes this exact by construction.
  const double rate = opts.smoke ? 300 : 600;
  const double window_s = opts.smoke ? 0.6 : 2.0;
  const std::vector<std::uint32_t> cluster_counts{1, 2, 4};
  const struct Regime {
    const char* name;
    double load_factor;
  } regimes[] = {{"underload", 0.5}, {"overload", 2.0}};

  report.SetParam("smoke", opts.smoke ? 1 : 0);
  report.SetParam("rate_per_worker", rate);
  report.SetParam("window_s", window_s);

  // Deterministic simulated tail blame: the kernel's coarse backoff spinlock
  // vs the NUMA-aware hmcs-t under identical request schedules.  Gated: the
  // hwhy headline (lock_wait share of the promoted p99 tail) must stay
  // strictly lower for hmcs-t, and every promoted ledger must reconcile
  // within 1%.  (A fair FIFO lock is deliberately not the baseline here: its
  // waits have so little variance that the only above-threshold totals are
  // the startup transient's, leaving an empty steady-state tail.)
  {
    const int requests_per_proc = opts.smoke ? 32 : 128;
    const BlameOutcome coarse =
        RunBlameScenario(hsim::LockKind::kSpin35us, requests_per_proc);
    const BlameOutcome hmcst =
        RunBlameScenario(hsim::LockKind::kHmcsT, requests_per_proc);
    const double below = hmcst.frac_lock_wait_p99 < coarse.frac_lock_wait_p99 ? 1.0 : 0.0;
    printf("tail blame (simulated, %u procs / %u clusters, %d reqs/proc, q=%.2f)\n",
           kBlameProcs, kBlameClusters, requests_per_proc, kBlameQuantile);
    printf("%-10s %18s %14s %12s\n", "lock", "lock_wait@p99", "reconcile_ok", "tail_recs");
    printf("%-10s %17.1f%% %14.0f %12llu\n", "coarse",
           coarse.frac_lock_wait_p99 * 100, coarse.frac_reconcile_ok,
           static_cast<unsigned long long>(coarse.tail_records));
    printf("%-10s %17.1f%% %14.0f %12llu\n", "hmcs-t",
           hmcst.frac_lock_wait_p99 * 100, hmcst.frac_reconcile_ok,
           static_cast<unsigned long long>(hmcst.tail_records));
    printf("hmcs-t lock_wait share strictly below coarse: %s\n\n",
           below == 1.0 ? "yes" : "NO");
    report.AddSeries("blame", {{"lock", "coarse"}})
        .AddPoint({{"procs", static_cast<double>(kBlameProcs)},
                   {"clusters", static_cast<double>(kBlameClusters)},
                   {"quantile", kBlameQuantile},
                   {"frac_lock_wait_p99", coarse.frac_lock_wait_p99},
                   {"frac_reconcile_ok", coarse.frac_reconcile_ok}});
    report.AddSeries("blame", {{"lock", "hmcs-t"}})
        .AddPoint({{"procs", static_cast<double>(kBlameProcs)},
                   {"clusters", static_cast<double>(kBlameClusters)},
                   {"quantile", kBlameQuantile},
                   {"frac_lock_wait_p99", hmcst.frac_lock_wait_p99},
                   {"frac_reconcile_ok", hmcst.frac_reconcile_ok}});
    report.AddSeries("blame", {{"lock", "gate"}})
        .AddPoint({{"procs", static_cast<double>(kBlameProcs)},
                   {"clusters", static_cast<double>(kBlameClusters)},
                   {"frac_hmcst_below_coarse", below},
                   {"frac_reconcile_ok",
                    coarse.frac_reconcile_ok * hmcst.frac_reconcile_ok}});
  }

  // --why: one always-on recorder across the whole sweep (per-cluster rings
  // sized for the largest run; native steady_clock ns, 1000 ticks/us).
  std::unique_ptr<hflight::FlightRecorder> why_recorder;
  if (opts.why) {
    hflight::FlightConfig cfg;
    cfg.clusters = cluster_counts.back();
    cfg.ticks_per_us = 1000.0;
    why_recorder = std::make_unique<hflight::FlightRecorder>(cfg);
  }

  printf("hsvc open-loop throughput sweep (paced %.0f ops/s per worker)\n\n", rate);
  printf("%-10s %8s %12s %12s %10s %10s %10s %10s %10s\n", "regime", "clusters",
         "offered/s", "achieved/s", "completed", "failed", "rejects", "p99_ms", "p999_ms");

  for (const Regime& regime : regimes) {
    // Buffered locally: AddSeries invalidates previously returned series
    // references, so the report is only assembled after the sweep.
    std::vector<hmetrics::Point> gate_points;
    std::vector<hmetrics::Point> latency_points;
    for (const std::uint32_t clusters : cluster_counts) {
      const double offered = regime.load_factor * rate;
      const auto ops =
          static_cast<std::size_t>(window_s * offered);
      const RunOutcome out =
          RunOne(clusters, rate, regime.load_factor, ops, why_recorder.get());
      const hload::RunnerResult& r = out.load;

      const double frac_completed = r.completed_fraction();
      const double frac_failed =
          r.planned == 0
              ? 0.0
              : static_cast<double>(r.rejected_final + r.abandoned) /
                    static_cast<double>(r.planned);
      const double frac_expired =
          r.planned == 0 ? 0.0
                         : static_cast<double>(r.expired) / static_cast<double>(r.planned);
      const double p99_us = static_cast<double>(r.latency.percentile(99)) / 1000.0;
      const double p999_us = static_cast<double>(r.latency.percentile(99.9)) / 1000.0;

      // Gated point: coordinates plus configuration-determined fractions.
      gate_points.push_back({{"clusters", static_cast<double>(clusters)},
                             {"offered_rps", offered},
                             {"frac_completed", frac_completed},
                             {"frac_failed", frac_failed},
                             {"frac_expired", frac_expired}});
      // Ungated point: wall-clock tails and raw counters (machine-dependent).
      latency_points.push_back(
          {{"clusters", static_cast<double>(clusters)},
           {"offered_rps", offered},
           {"achieved_rps", r.achieved_rps()},
           {"p50_us", static_cast<double>(r.latency.percentile(50)) / 1000.0},
           {"p99_us", p99_us},
           {"p999_us", p999_us},
           {"mean_us", r.latency.mean() / 1000.0},
           {"rejected_submits", static_cast<double>(r.rejected_submits)},
           {"svc_rejected", static_cast<double>(out.svc_rejected)},
           {"svc_expired", static_cast<double>(out.svc_expired)},
           {"combined_gets", static_cast<double>(out.svc_combined)},
           {"pool_exhausted", static_cast<double>(r.pool_exhausted)}});

      printf("%-10s %8u %12.0f %12.0f %10.3f %10.3f %10llu %10.2f %10.2f\n", regime.name,
             clusters, offered * clusters, r.achieved_rps(), frac_completed, frac_failed,
             static_cast<unsigned long long>(r.rejected_submits), p99_us / 1000.0,
             p999_us / 1000.0);
    }
    hmetrics::BenchSeries& gate = report.AddSeries("throughput", {{"load", regime.name}});
    for (hmetrics::Point& point : gate_points) {
      gate.AddPoint(std::move(point));
    }
    hmetrics::BenchSeries& latency = report.AddSeries("latency", {{"load", regime.name}});
    for (hmetrics::Point& point : latency_points) {
      latency.AddPoint(std::move(point));
    }
  }
  printf("\nunderload: achieved tracks offered as clusters grow (near-linear capacity\n"
         "scaling at fixed per-cluster load).  overload: the completed fraction\n"
         "settles near capacity/offered with nonzero rejections -- admission control\n"
         "degrades into bounded-latency rejection, not queueing collapse.\n");

  if (why_recorder != nullptr) {
    const std::string flight_doc = why_recorder->ToJson();
    if (!opts.why_path.empty()) {
      std::FILE* f = std::fopen(opts.why_path.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", opts.why_path.c_str());
        return 1;
      }
      std::fwrite(flight_doc.data(), 1, flight_doc.size(), f);
      std::fclose(f);
    }
    hmetrics::JsonValue doc;
    std::string error;
    hflight::BlameReport blame;
    if (!hmetrics::JsonParser::Parse(flight_doc, &doc, &error) ||
        !blame.AddFlight(doc, &error) || !blame.Analyze(&error)) {
      std::fprintf(stderr, "hwhy analysis failed: %s\n", error.c_str());
      return 1;
    }
    printf("\n%s", blame.RenderText(10).c_str());
  }

  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
