// Simulated workloads: sim_kernel_faults (the paper's mixed fault test on
// the 16-processor HECTOR model) and sim_mesh (hmesh with 4 machines).
//
// A simulated scenario is deterministic for its seed, so one run repeats it
// on four threads until the time budget is spent: simulated results must come
// out identical every time (an output check), and the host CPU time per
// scenario is the median over all repetitions.
//
// End-to-end metrics:
//   ops_per_s     completions per simulated second
//   capacity_rps  completions simulated per host CPU second (the
//                 simulator's speed: ops / CPU time of one scenario)
// Simulated latency is per-layer: sim.mean_latency_us (the mean, because the
// median is a fixed path cost -- mesh local reads all take the same number of
// ticks, so it would not move with the seed) and sim.p99_us.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/hkernel/kernel.h"
#include "src/hkernel/workloads.h"
#include "src/hmesh/mesh.h"
#include "src/hsim/engine.h"
#include "src/hsim/machine.h"

// Link-time interposition on hsim::Engine::RunUntilIdle (the build passes
// -Wl,--wrap for its mangled name).  hkernel::RunMixedFaultTest owns its
// engine, so this is the one place the benchmark can see the engine's event
// count and time the run loop without changing the library.  A non-virtual
// member function takes `this` as its first argument on this ABI.
extern "C" hsim::Tick __real__ZN4hsim6Engine12RunUntilIdleEv(hsim::Engine* engine);

namespace perfbench {
namespace {

// Set by the wrapper after every RunUntilIdle on the calling thread; spans go
// to the thread's `g_run_spans` when a traced scenario installs it.
thread_local std::uint64_t g_last_events = 0;
thread_local SpanBuffer* g_run_spans = nullptr;

constexpr std::uint32_t kSimThreads = 4;
constexpr int kMinReps = 3;
constexpr int kSetUpsPerRep = 4;

double Frac(double num, double den) { return den == 0 ? 0 : num / den; }

// Runs `scenario(thread)` (returning its simulated outcome) on kSimThreads
// threads at once, each repeating it until `seconds` of wall time are spent,
// at least kMinReps times.  Keeping every CPU busy makes the host's speed
// steadier from run to run than one thread on an otherwise idle host.
// Before each repetition a thread also runs the scenario's set-up `set_up`
// kSetUpsPerRep times on its own (what set_up returns is torn down untimed),
// so set-up samples spread over the whole run as the scenario's do.  Fills
// the host CPU seconds of each repetition and each set-up (a simulation runs
// on one thread, so its cost is that thread's CPU time; wall time would add
// whatever else the host ran meanwhile); returns false if any outcome
// differs from the first.
template <typename Outcome, typename SetUpFn, typename Fn>
bool Repeat(double seconds, SetUpFn set_up, Fn scenario, Outcome* first,
            std::vector<double>* host_s, std::vector<double>* setup_s) {
  struct PerThread {
    Outcome first;
    bool identical = true;
    std::vector<double> host_s;
    std::vector<double> setup_s;
  };
  std::vector<PerThread> per(kSimThreads);
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  const auto body = [&](std::uint32_t t) {
    PerThread& me = per[t];
    for (int rep = 0; rep < kMinReps || NowNs() < deadline; ++rep) {
      for (int i = 0; i < kSetUpsPerRep; ++i) {
        const std::uint64_t t0 = ThreadCpuNs();
        const auto state = set_up();  // torn down after the timing
        me.setup_s.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e9);
      }
      const std::uint64_t t0 = ThreadCpuNs();
      Outcome out = scenario(t);
      me.host_s.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e9);
      if (rep == 0) {
        me.first = std::move(out);
      } else if (!(out == me.first)) {
        me.identical = false;
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kSimThreads; ++t) {
    threads.emplace_back(body, t);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  bool identical = true;
  for (PerThread& me : per) {
    identical &= me.identical && me.first == per[0].first;
    host_s->insert(host_s->end(), me.host_s.begin(), me.host_s.end());
    setup_s->insert(setup_s->end(), me.setup_s.begin(), me.setup_s.end());
  }
  *first = std::move(per[0].first);
  return identical;
}

// --- sim_kernel_faults ------------------------------------------------------

constexpr std::uint32_t kKernelSharedPages = 4;  // RunMixedFaultTest's SPMD side

hkernel::FaultTestParams KernelParams(std::uint64_t seed) {
  hkernel::FaultTestParams p;
  p.lock_kind = hsim::LockKind::kMcsH2;
  p.cluster_size = 4;
  p.active_procs = 16;
  // The seed picks a sparse pattern of short extra transit delays on the
  // kernel's RPC legs: every message still arrives, in a seed-dependent
  // interleaving.
  p.faults.delay_request = 0.02;
  p.faults.delay_reply = 0.02;
  p.faults.max_extra_delay = 32;
  p.faults.seed = seed;
  return p;
}

struct KernelOutcome {
  std::vector<std::uint64_t> latency;  // simulated ticks per recorded fault
  std::vector<std::uint64_t> lock_overhead;
  hsim::Tick duration = 0;
  std::uint64_t faults = 0;
  std::uint64_t unmaps = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t rpc_ops_applied = 0;
  std::uint64_t would_deadlock = 0;
  hsim::Tick ring_wait = 0;
  hsim::Tick mem_wait = 0;
  std::uint64_t events = 0;

  bool operator==(const KernelOutcome&) const = default;
};

// The machine and kernel RunMixedFaultTest builds before its processors run.
struct KernelSetUp {
  explicit KernelSetUp(const hkernel::FaultTestParams& params)
      : machine(&engine, hsim::MachineConfig{}), system(&machine, Config(params)) {}
  static hkernel::KernelConfig Config(const hkernel::FaultTestParams& params) {
    hkernel::KernelConfig config;
    config.cluster_size = params.cluster_size;
    config.lock_kind = params.lock_kind;
    return config;
  }

  hsim::Engine engine;
  hsim::Machine machine;
  hkernel::KernelSystem system;
};

KernelOutcome RunKernelScenario(const hkernel::FaultTestParams& params) {
  const hkernel::FaultTestResult r = hkernel::RunMixedFaultTest(params);
  KernelOutcome out;
  out.latency = r.latency.samples();
  out.lock_overhead = r.lock_overhead.samples();
  out.duration = r.duration;
  out.faults = r.counters.faults;
  out.unmaps = r.counters.unmaps;
  out.rpcs = r.counters.rpcs;
  out.rpc_ops_applied = r.counters.rpc_ops_applied;
  out.would_deadlock = r.counters.rpc_would_deadlock;
  out.ring_wait = r.ring_wait;
  out.mem_wait = r.mem_wait;
  out.events = g_last_events;
  return out;
}

// --- sim_mesh ---------------------------------------------------------------

constexpr std::uint32_t kMachines = 4;
constexpr std::uint64_t kMeshOpsPerClient = 12000;
constexpr double kMeshRatePerMachine = 80'000;  // offered ops/s per machine
constexpr hsim::Tick kMeshStep = hsim::UsToTicks(100);
constexpr hsim::Tick kMeshLimit = hsim::UsToTicks(10'000'000);

hmesh::MeshConfig MeshConfigFor() {
  hmesh::MeshConfig mc;
  mc.machines = kMachines;
  return mc;
}

hsim::FaultConfig MeshFaults(std::uint64_t seed) {
  // Rare losses on both legs keep the exact-once channel's retransmit and
  // dedup path in the workload.
  hsim::FaultConfig f;
  f.drop_request = 0.0005;
  f.drop_reply = 0.0005;
  f.seed = seed;
  return f;
}

// The benchmark's own open-loop mesh client, one per machine: a seeded
// Poisson schedule of zipfian ranks, each rank spread over one key per
// machine (key = rank * machines + m, so the hot head of the curve is the
// mesh's hot-rank set), each op timed from its due tick, at most kMeshWindow
// in flight.  Every write's value is its op id, so a read can be
// checked against the values written for its key.
constexpr std::uint32_t kMeshWindow = 8;
constexpr double kMeshReadFraction = 0.8;

struct MeshOp {
  hsim::Tick due = 0;
  std::uint64_t key = 0;
  bool write = false;
};

struct AckedWrite {
  std::uint64_t op_id = 0;
  std::uint64_t version = 0;
};

struct MeshRun {
  hmesh::Mesh* mesh = nullptr;
  std::map<std::uint64_t, std::uint64_t> preload;    // key -> value after Start
  std::map<std::uint64_t, std::uint64_t> write_key;  // op id (= value) -> key
  std::vector<std::uint64_t> latency_ns;
  std::vector<AckedWrite> acked;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t bad_reads = 0;
  hsim::Tick last_done = 0;  // tick of the latest completion
  std::uint32_t clients_done = 0;
};

struct MeshClientState {
  MeshRun* run = nullptr;
  std::uint32_t machine = 0;
  std::uint32_t in_flight = 0;
};

std::vector<MeshOp> PlanMeshOps(std::uint64_t seed, std::uint32_t machine,
                                std::uint64_t keys_per_machine) {
  Rng rng(StreamSeed(seed, machine));
  const Zipf zipf(keys_per_machine, 0.99);
  const double mean_gap_ticks =
      1e6 / kMeshRatePerMachine * static_cast<double>(hsim::kCyclesPerMicrosecond);
  std::vector<MeshOp> plan(kMeshOpsPerClient);
  double due = 0;
  for (MeshOp& op : plan) {
    due += -std::log(1.0 - rng.Uniform()) * mean_gap_ticks;
    op.due = static_cast<hsim::Tick>(due);
    op.key = zipf.Next(&rng) * kMachines + rng.Below(kMachines);
    op.write = rng.Uniform() >= kMeshReadFraction;
  }
  return plan;
}

std::uint64_t TicksToNs(hsim::Tick ticks) { return ticks * 1000 / hsim::kCyclesPerMicrosecond; }

hsim::Task<void> RunMeshOp(MeshClientState* st, MeshOp op, std::uint64_t op_id) {
  MeshRun* run = st->run;
  hmesh::Mesh* mesh = run->mesh;
  hsim::Processor& p = mesh->machine(st->machine).processor(1);
  hmesh::MeshStatus status;
  if (op.write) {
    std::uint64_t version = 0;
    status = co_await mesh->ClientWrite(p, st->machine, op.key, op_id, op_id, &version, nullptr);
    if (status == hmesh::MeshStatus::kOk) {
      run->acked.push_back(AckedWrite{op_id, version});
    }
  } else {
    std::uint64_t value = 0;
    bool local = false;
    status = co_await mesh->ClientRead(p, st->machine, op.key, &value, &local, nullptr);
    if (status == hmesh::MeshStatus::kOk) {
      const auto w = run->write_key.find(value);
      const bool written = w != run->write_key.end() && w->second == op.key;
      if (!written && run->preload[op.key] != value) {
        ++run->bad_reads;
      }
    }
  }
  if (status == hmesh::MeshStatus::kOk) {
    ++run->completed;
    const hsim::Tick end = mesh->engine().now();
    run->last_done = std::max(run->last_done, end);
    run->latency_ns.push_back(TicksToNs(end > op.due ? end - op.due : 0));
  } else {
    ++run->failed;
  }
  --st->in_flight;
}

hsim::Task<void> RunMeshClient(MeshClientState* st, const std::vector<MeshOp>* plan) {
  MeshRun* run = st->run;
  hsim::Engine& eng = run->mesh->engine();
  hsim::Processor& p = run->mesh->machine(st->machine).processor(1);
  const hsim::Tick base = p.now();
  for (std::uint64_t i = 0; i < plan->size(); ++i) {
    MeshOp op = (*plan)[i];
    op.due += base;
    co_await eng.WaitUntil(op.due);
    while (st->in_flight >= kMeshWindow) {
      co_await p.BackoffDelay(64);
    }
    const std::uint64_t op_id = (std::uint64_t{st->machine} + 1) << 40 | (i + 1);
    if (op.write) {
      run->write_key[op_id] = op.key;
    }
    ++run->issued;
    ++st->in_flight;
    eng.Spawn(RunMeshOp(st, op, op_id));
  }
  while (st->in_flight > 0) {
    co_await p.BackoffDelay(256);
  }
  ++run->clients_done;
}

struct MeshOutcome {
  std::uint64_t completed = 0;
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  std::uint64_t bad_reads = 0;
  hsim::Tick end = 0;
  std::vector<std::uint64_t> latency_ns;
  std::uint64_t digest = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t forwarded_reads = 0;
  std::uint64_t puts = 0;
  std::uint64_t updates = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t events = 0;
  std::uint64_t exact_once_violations = 0;
  bool done = false;

  bool operator==(const MeshOutcome&) const = default;
};

// Everything a mesh scenario builds before its clients start: the started
// mesh, the value each key holds after Start, and every client's op plan.
struct MeshSetUp {
  explicit MeshSetUp(std::uint64_t seed) : mesh(&eng, MeshConfigFor()) {
    mesh.set_fault_plan(MeshFaults(seed));
    mesh.Start();
    for (std::uint64_t key = 0; key < mesh.config().keys(); ++key) {
      const hmesh::Mesh::Entry* entry = mesh.Lookup(mesh.HoldersOf(key).front(), key);
      if (entry == nullptr) {
        ++unloaded_keys;
      } else {
        preload[key] = entry->value;
      }
    }
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      plans.push_back(PlanMeshOps(seed, m, mesh.config().keys_per_machine));
    }
  }

  // Lets the servers' loops end before the engine goes.
  ~MeshSetUp() {
    mesh.Shutdown();
    eng.RunUntilIdle();
  }

  hsim::Engine eng;
  hmesh::Mesh mesh;
  std::map<std::uint64_t, std::uint64_t> preload;
  std::uint64_t unloaded_keys = 0;  // keys whose first holder has no entry
  std::vector<std::vector<MeshOp>> plans;
};

MeshOutcome RunMeshScenario(std::uint64_t seed, SpanBuffer* spans) {
  MeshSetUp setup(seed);
  hsim::Engine& eng = setup.eng;
  hmesh::Mesh& mesh = setup.mesh;

  MeshRun run;
  run.mesh = &mesh;
  run.preload = std::move(setup.preload);
  const std::vector<std::vector<MeshOp>>& plans = setup.plans;
  std::vector<MeshClientState> clients(kMachines);
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    clients[m] = MeshClientState{&run, m, 0};
    eng.Spawn(RunMeshClient(&clients[m], &plans[m]));
  }

  std::uint64_t step = 0;
  while (run.clients_done < kMachines && eng.now() < kMeshLimit) {
    const std::uint64_t t0 = spans != nullptr ? NowNs() : 0;
    const bool drained = eng.RunUntil(eng.now() + kMeshStep);
    if (spans != nullptr) {
      spans->Add(kSpanRunUntil, ++step, 0, t0, NowNs());
    }
    if (drained) {
      break;
    }
  }
  MeshOutcome out;
  out.done = run.clients_done == kMachines;
  out.end = run.last_done;
  out.completed = run.completed;
  out.issued = run.issued;
  out.failed = run.failed;
  out.bad_reads = run.bad_reads;
  out.latency_ns = std::move(run.latency_ns);
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    const hmesh::Mesh::NodeCounters& nc = mesh.node_counters(m);
    out.local_reads += nc.local_reads;
    out.forwarded_reads += nc.forwarded_reads;
    out.puts += nc.puts_served;
    out.updates += nc.updates_applied;
    out.rpcs += nc.rpcs_out;
    out.retransmits += nc.retransmits;
    out.unavailable += nc.unavailable;
  }
  // Every acked write was applied at exactly the one version its ack named.
  for (const AckedWrite& w : run.acked) {
    const auto it = mesh.op_versions().find(w.op_id);
    if (it == mesh.op_versions().end() || it->second.size() != 1 ||
        it->second.front() != w.version) {
      ++out.exact_once_violations;
    }
  }
  mesh.Shutdown();
  eng.RunUntilIdle();
  out.digest = mesh.Digest();
  out.events = eng.events_processed();
  return out;
}

}  // namespace

unsigned SimThreads() { return kSimThreads; }

Result RunSimKernel(const Options& opts, TraceLog* log) {
  Result res;
  const hkernel::FaultTestParams params = KernelParams(opts.seed);

  // Set-up: the machine and kernel the scenario builds before it runs.
  const auto set_up = [&] { return std::make_unique<KernelSetUp>(params); };

  KernelOutcome out;
  std::vector<double> host_s;
  std::vector<double> traced_host_s;
  std::vector<double> setups;
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  bool identical = Repeat(budget, set_up, [&](std::uint32_t) { return RunKernelScenario(params); },
                          &out, &host_s, &setups);
  if (opts.trace) {
    std::vector<std::unique_ptr<SpanBuffer>> spans;
    for (std::uint32_t t = 0; t < kSimThreads; ++t) {
      spans.push_back(std::make_unique<SpanBuffer>(t, 10000));
    }
    KernelOutcome traced;
    identical &= Repeat(
        budget, set_up,
        [&](std::uint32_t t) {
          g_run_spans = spans[t].get();
          return RunKernelScenario(params);
        },
        &traced, &traced_host_s, &setups);
    identical &= traced == out;
    for (const auto& buf : spans) {
      log->Adopt(*buf);
    }
  }

  // Outputs: the scenario ran to its shape, and replays bit-identically.
  constexpr std::uint32_t kSharedProcs = 8;  // odd processors of 16
  const std::uint64_t rounds = params.warmup + params.iterations;
  res.Check(identical, "simulated results differ between repetitions with one seed");
  res.Check(out.unmaps == kKernelSharedPages * rounds,
            "unmaps " + std::to_string(out.unmaps) + " != " +
                std::to_string(kKernelSharedPages * rounds));
  res.Check(out.faults >= kSharedProcs * kKernelSharedPages * rounds,
            "fewer faults than the shared side alone issues");
  res.Check(out.latency.size() >= kSharedProcs * kKernelSharedPages * params.iterations,
            "fewer recorded faults than the shared side's measured rounds");
  res.Check(out.rpc_ops_applied == out.rpcs, "RPC handler executions != RPCs issued");
  res.attempted = out.faults;
  res.failed = 0;  // a page fault has no failure outcome: each one completes

  const double sim_s = hsim::TicksToUs(out.duration) / 1e6;
  const double host = Median(host_s);
  std::vector<std::uint64_t> lat = out.latency;
  if (!opts.trace) {
    res.Set("capacity_rps", static_cast<double>(out.faults) / host, "1/s");
    res.Set("ops_per_s", static_cast<double>(out.faults) / sim_s, "1/s");
    res.Set("setup_s", Median(setups), "s");
  } else {
    const double faults = static_cast<double>(out.faults);
    res.Set("sim.mean_latency_us",
            Mean(lat) / static_cast<double>(hsim::kCyclesPerMicrosecond), "us");
    res.Set("sim.p99_us", hsim::TicksToUs(Percentile(&lat, 99)), "us");
    res.Set("sim.events", static_cast<double>(out.events), "count");
    res.Set("sim.host_ns_per_event", host * 1e9 / static_cast<double>(out.events), "ns");
    res.Set("kernel.rpcs_per_fault", Frac(static_cast<double>(out.rpcs), faults), "ratio");
    res.Set("kernel.would_deadlock_frac",
            Frac(static_cast<double>(out.would_deadlock), static_cast<double>(out.rpcs)), "ratio");
    res.Set("kernel.lock_overhead_us",
            Mean(out.lock_overhead) / static_cast<double>(hsim::kCyclesPerMicrosecond), "us");
    res.Set("kernel.ring_wait_us", hsim::TicksToUs(out.ring_wait) / faults, "us");
    res.Set("kernel.mem_wait_us", hsim::TicksToUs(out.mem_wait) / faults, "us");
    res.Set("trace.capacity_ratio", Frac(host, Median(traced_host_s)), "ratio");
    res.Set("fail_frac", 0, "ratio");
    log->Counter("kernel.faults", faults);
    log->Counter("kernel.rpcs", static_cast<double>(out.rpcs));
    log->Counter("sim.events", static_cast<double>(out.events));
    log->Counter("host_s.untraced", host);
    log->Counter("host_s.traced", Median(traced_host_s));
  }
  return res;
}

Result RunSimMesh(const Options& opts, TraceLog* log) {
  Result res;

  // Set-up: the scenario's own MeshSetUp, up to the clients' start.
  std::atomic<std::uint64_t> unloaded_keys{0};
  const auto set_up = [&] {
    auto setup = std::make_unique<MeshSetUp>(opts.seed);
    unloaded_keys += setup->unloaded_keys;
    return setup;
  };

  MeshOutcome out;
  std::vector<double> host_s;
  std::vector<double> traced_host_s;
  std::vector<double> setups;
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  bool identical = Repeat(
      budget, set_up, [&](std::uint32_t) { return RunMeshScenario(opts.seed, nullptr); }, &out,
      &host_s, &setups);
  if (opts.trace) {
    std::vector<std::unique_ptr<SpanBuffer>> spans;
    for (std::uint32_t t = 0; t < kSimThreads; ++t) {
      spans.push_back(std::make_unique<SpanBuffer>(t, 100000));
    }
    MeshOutcome traced;
    identical &= Repeat(
        budget, set_up,
        [&](std::uint32_t t) { return RunMeshScenario(opts.seed, spans[t].get()); }, &traced,
        &traced_host_s, &setups);
    identical &= traced == out;
    for (const auto& buf : spans) {
      log->Adopt(*buf);
    }
  }

  res.Check(unloaded_keys == 0, std::to_string(unloaded_keys.load()) +
                                     " keys had no entry at their holder after Start");
  res.Check(identical, "mesh digest or results differ between repetitions with one seed");
  res.Check(out.done, "mesh clients did not finish within the simulated time limit");
  res.Check(out.exact_once_violations == 0,
            std::to_string(out.exact_once_violations) +
                " acked writes not applied at exactly their acked version");
  res.Check(out.completed + out.failed == out.issued, "completed + failed != issued");
  res.Check(out.bad_reads == 0,
            std::to_string(out.bad_reads) + " reads returned a value never written for the key");
  res.attempted = out.issued;
  res.failed = out.failed + out.unavailable;

  const double sim_s = hsim::TicksToUs(out.end) / 1e6;
  const double host = Median(host_s);
  std::vector<std::uint64_t> lat = out.latency_ns;
  if (!opts.trace) {
    res.Set("capacity_rps", static_cast<double>(out.completed) / host, "1/s");
    res.Set("ops_per_s", static_cast<double>(out.completed) / sim_s, "1/s");
    res.Set("setup_s", Median(setups), "s");
  } else {
    const double reads = static_cast<double>(out.local_reads + out.forwarded_reads);
    res.Set("sim.mean_latency_us", Mean(lat) / 1e3, "us");
    res.Set("sim.p99_us", static_cast<double>(Percentile(&lat, 99)) / 1e3, "us");
    res.Set("sim.events", static_cast<double>(out.events), "count");
    res.Set("sim.host_ns_per_event", host * 1e9 / static_cast<double>(out.events), "ns");
    res.Set("mesh.local_read_frac", Frac(static_cast<double>(out.local_reads), reads), "ratio");
    res.Set("mesh.update_amp", Frac(static_cast<double>(out.updates), static_cast<double>(out.puts)),
            "ratio");
    res.Set("mesh.rpcs_per_op",
            Frac(static_cast<double>(out.rpcs), static_cast<double>(out.completed)), "ratio");
    res.Set("mesh.retransmits", static_cast<double>(out.retransmits), "count");
    res.Set("trace.capacity_ratio", Frac(host, Median(traced_host_s)), "ratio");
    res.Set("fail_frac", Frac(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
            "ratio");
    log->Counter("mesh.digest", static_cast<double>(out.digest));
    log->Counter("mesh.completed", static_cast<double>(out.completed));
    log->Counter("sim.events", static_cast<double>(out.events));
    log->Counter("host_s.untraced", host);
    log->Counter("host_s.traced", Median(traced_host_s));
  }
  return res;
}

}  // namespace perfbench

extern "C" hsim::Tick __wrap__ZN4hsim6Engine12RunUntilIdleEv(hsim::Engine* engine) {
  const std::uint64_t t0 = perfbench::NowNs();
  const hsim::Tick tick = __real__ZN4hsim6Engine12RunUntilIdleEv(engine);
  perfbench::g_last_events = engine->events_processed();
  if (perfbench::g_run_spans != nullptr) {
    perfbench::g_run_spans->Add(perfbench::kSpanRunUntil, 0, 0, t0, perfbench::NowNs());
  }
  return tick;
}
