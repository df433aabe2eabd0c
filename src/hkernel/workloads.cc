#include "src/hkernel/workloads.h"

#include <memory>
#include <vector>

#include "src/hsim/engine.h"
#include "src/hsim/machine.h"

namespace hkernel {

hsim::Task<void> SimBarrier::Wait(hsim::Processor& p) {
  const std::uint64_t gen = generation_;
  if (++count_ == parties_) {
    count_ = 0;
    ++generation_;
    co_return;
  }
  CpuKernel& k = system_->cpu(p.id());
  while (generation_ == gen) {
    co_await k.IrqPoint(p);
    co_await p.Compute(24);
  }
}

namespace {

// Shared bookkeeping for a test run: the last driver to finish flips `stop`
// so idle loops wind down and the engine can drain.
struct RunState {
  std::uint32_t remaining = 0;
  bool stop = false;
  std::uint64_t window_ops = 0;

  void DriverDone() {
    if (--remaining == 0) {
      stop = true;
    }
  }
};

hsim::Task<void> IndependentDriver(KernelSystem* sys, hsim::ProcId pid, Program* prog,
                                   const FaultTestParams params, hsim::LatencyRecorder* latency,
                                   hsim::LatencyRecorder* lock_overhead, RunState* state) {
  hsim::Processor& p = sys->machine().processor(pid);
  CpuKernel& k = sys->cpu(pid);
  const hsim::Tick warm_end = params.warmup_time;
  const hsim::Tick deadline = params.warmup_time + params.measure_time;
  std::uint32_t i = 0;
  while (p.now() < deadline) {
    const std::uint64_t page = KernelSystem::MakePage(pid, i++ % params.pages);
    const hsim::Tick t0 = p.now();
    FaultOutcome out;
    co_await sys->PageFault(p, *prog, page, &out);
    if (p.now() >= warm_end && p.now() <= deadline) {
      ++state->window_ops;
    }
    if (t0 >= warm_end && p.now() <= deadline) {
      latency->Record(out.total);
      lock_overhead->Record(out.lock_cycles);
    }
    co_await k.IrqPoint(p);
    co_await p.Compute(32);  // minimal user work between faults
  }
  state->DriverDone();
}

hsim::Task<void> SharedDriver(KernelSystem* sys, hsim::ProcId pid, Program* prog,
                              const FaultTestParams params, SimBarrier* barrier, bool leader,
                              hsim::LatencyRecorder* latency, hsim::LatencyRecorder* lock_overhead,
                              RunState* state) {
  hsim::Processor& p = sys->machine().processor(pid);
  CpuKernel& k = sys->cpu(pid);
  const std::uint32_t total = params.warmup + params.iterations;
  for (std::uint32_t r = 0; r < total; ++r) {
    for (std::uint32_t n = 0; n < params.pages; ++n) {
      // Shared pages live in processor 0's cluster.
      const std::uint64_t page = KernelSystem::MakePage(0, n);
      FaultOutcome out;
      co_await sys->PageFault(p, *prog, page, &out);
      if (r >= params.warmup) {
        latency->Record(out.total);
        lock_overhead->Record(out.lock_cycles);
      }
      co_await k.IrqPoint(p);
    }
    co_await barrier->Wait(p);
    if (leader) {
      for (std::uint32_t n = 0; n < params.pages; ++n) {
        co_await sys->UnmapGlobal(p, KernelSystem::MakePage(0, n));
      }
    }
    co_await barrier->Wait(p);
  }
  state->DriverDone();
}

struct TestRig {
  hsim::Engine engine;
  std::unique_ptr<hsim::Machine> machine;
  std::unique_ptr<KernelSystem> system;
  RunState state;

  explicit TestRig(const FaultTestParams& params) {
    machine = std::make_unique<hsim::Machine>(&engine, hsim::MachineConfig{});
    machine->set_trace(params.trace);
    if (params.faults.any()) {
      machine->set_fault_plan(params.faults);
    }
    KernelConfig config;
    config.cluster_size = params.cluster_size;
    config.lock_kind = params.lock_kind;
    config.protocol = params.protocol;
    system = std::make_unique<KernelSystem>(machine.get(), config);
    system->set_metrics(params.metrics);
  }

  void SpawnIdleLoops(std::uint32_t active_procs) {
    for (hsim::ProcId p = active_procs; p < machine->num_processors(); ++p) {
      engine.Spawn(system->IdleLoop(machine->processor(p), &state.stop));
    }
  }

  FaultTestResult Finish(hsim::LatencyRecorder latency, hsim::LatencyRecorder lock_overhead) {
    FaultTestResult result;
    result.latency = std::move(latency);
    result.lock_overhead = std::move(lock_overhead);
    result.counters = system->counters();
    result.bus_wait = machine->total_bus_wait();
    result.mem_wait = machine->total_memory_wait();
    result.ring_wait = machine->total_ring_wait();
    if (machine->fault_plan() != nullptr) {
      result.transport = machine->fault_plan()->counters();
    }
    for (hsim::ProcId p = 0; p < machine->num_processors(); ++p) {
      result.backlog += system->cpu(p).backlog();
    }
    result.duration = engine.now();
    result.events = engine.events_processed();
    for (std::uint32_t m = 0; m < machine->num_processors(); ++m) {
      result.module_utilization.push_back(
          engine.now() > 0 ? static_cast<double>(machine->memory(m).total_busy()) /
                                 static_cast<double>(engine.now())
                           : 0.0);
      result.module_wait.push_back(machine->memory(m).total_wait());
    }
    system->PublishCounters();
    return result;
  }
};

}  // namespace

FaultTestResult RunIndependentFaultTest(const FaultTestParams& params) {
  TestRig rig(params);
  hsim::LatencyRecorder latency;
  hsim::LatencyRecorder lock_overhead;
  rig.state.remaining = params.active_procs;
  // One sequential program per processor: private regions, private address
  // spaces (Figure 6a).
  for (hsim::ProcId p = 0; p < params.active_procs; ++p) {
    Program& prog = rig.system->CreateProgram();
    rig.engine.Spawn(IndependentDriver(rig.system.get(), p, &prog, params, &latency,
                                       &lock_overhead, &rig.state));
  }
  rig.SpawnIdleLoops(params.active_procs);
  rig.engine.RunUntilIdle();
  FaultTestResult result = rig.Finish(std::move(latency), std::move(lock_overhead));
  result.window_ops = rig.state.window_ops;
  result.active_procs = params.active_procs;
  result.window = params.measure_time;
  return result;
}

FaultTestResult RunSharedFaultTest(const FaultTestParams& params) {
  TestRig rig(params);
  hsim::LatencyRecorder latency;
  hsim::LatencyRecorder lock_overhead;
  SimBarrier barrier(rig.system.get(), params.active_procs);
  rig.state.remaining = params.active_procs;
  // One parallel (SPMD) program spanning all processors (Figure 6b).
  Program& prog = rig.system->CreateProgram();
  for (hsim::ProcId p = 0; p < params.active_procs; ++p) {
    rig.engine.Spawn(SharedDriver(rig.system.get(), p, &prog, params, &barrier,
                                  /*leader=*/p == 0, &latency, &lock_overhead, &rig.state));
  }
  rig.SpawnIdleLoops(params.active_procs);
  rig.engine.RunUntilIdle();
  return rig.Finish(std::move(latency), std::move(lock_overhead));
}

FaultTestResult RunMixedFaultTest(const FaultTestParams& params) {
  TestRig rig(params);
  hsim::LatencyRecorder latency;
  hsim::LatencyRecorder lock_overhead;
  // Odd processors form one SPMD program; even processors run independent
  // sequential programs.  The shared side's round count bounds the run.
  std::vector<hsim::ProcId> shared_procs;
  std::vector<hsim::ProcId> indep_procs;
  for (hsim::ProcId p = 0; p < params.active_procs; ++p) {
    (p % 2 == 0 ? indep_procs : shared_procs).push_back(p);
  }
  SimBarrier barrier(rig.system.get(), static_cast<std::uint32_t>(shared_procs.size()));
  rig.state.remaining = static_cast<std::uint32_t>(shared_procs.size());

  Program& spmd = rig.system->CreateProgram();
  constexpr std::uint32_t kSharedPages = 4;
  const hsim::ProcId leader = shared_procs.front();
  for (hsim::ProcId pid : shared_procs) {
    rig.engine.Spawn([](KernelSystem* sys, hsim::ProcId self, hsim::ProcId lead, Program* prog,
                        const FaultTestParams p, SimBarrier* bar, hsim::LatencyRecorder* lat,
                        hsim::LatencyRecorder* lock_lat, RunState* state) -> hsim::Task<void> {
      hsim::Processor& proc = sys->machine().processor(self);
      CpuKernel& k = sys->cpu(self);
      const std::uint32_t rounds = p.warmup + p.iterations;
      for (std::uint32_t r = 0; r < rounds; ++r) {
        for (std::uint32_t n = 0; n < kSharedPages; ++n) {
          FaultOutcome out;
          co_await sys->PageFault(proc, *prog, KernelSystem::MakePage(lead, n), &out);
          if (r >= p.warmup) {
            lat->Record(out.total);
            lock_lat->Record(out.lock_cycles);
          }
          co_await k.IrqPoint(proc);
        }
        co_await bar->Wait(proc);
        if (self == lead) {
          for (std::uint32_t n = 0; n < kSharedPages; ++n) {
            co_await sys->UnmapGlobal(proc, KernelSystem::MakePage(lead, n));
          }
        }
        co_await bar->Wait(proc);
      }
      state->DriverDone();
    }(rig.system.get(), pid, leader, &spmd, params, &barrier, &latency, &lock_overhead,
      &rig.state));
  }

  // Independent side: sequential programs faulting on private pages until the
  // SPMD side finishes.
  for (hsim::ProcId pid : indep_procs) {
    Program& prog = rig.system->CreateProgram();
    rig.engine.Spawn([](KernelSystem* sys, hsim::ProcId self, Program* pr,
                        const FaultTestParams p, hsim::LatencyRecorder* lat,
                        hsim::LatencyRecorder* lock_lat, RunState* state) -> hsim::Task<void> {
      hsim::Processor& proc = sys->machine().processor(self);
      CpuKernel& k = sys->cpu(self);
      std::uint32_t i = 0;
      const hsim::Tick warm = p.warmup_time;
      while (!state->stop) {
        FaultOutcome out;
        co_await sys->PageFault(proc, *pr, KernelSystem::MakePage(self, i++ % p.pages), &out);
        if (proc.now() >= warm) {
          lat->Record(out.total);
          lock_lat->Record(out.lock_cycles);
        }
        co_await k.IrqPoint(proc);
        co_await proc.Compute(32);
      }
    }(rig.system.get(), pid, &prog, params, &latency, &lock_overhead, &rig.state));
  }
  rig.SpawnIdleLoops(params.active_procs);
  rig.engine.RunUntilIdle();
  return rig.Finish(std::move(latency), std::move(lock_overhead));
}

CalibrationResult RunCalibration(hsim::LockKind lock_kind) {
  CalibrationResult result;

  // Uncontended fault: one processor, cluster of 4 (the system's deployment
  // value), private local pages.
  {
    FaultTestParams params;
    params.lock_kind = lock_kind;
    params.cluster_size = 4;
    params.active_procs = 1;
    params.pages = 4;
    params.warmup_time = hsim::UsToTicks(800);
    params.measure_time = hsim::UsToTicks(4000);
    FaultTestResult r = RunIndependentFaultTest(params);
    result.fault_us = r.latency.mean_us();
    result.fault_lock_us = r.lock_overhead.mean_us();
  }

  // Null RPC and replication cost, measured on an otherwise idle machine.
  {
    hsim::Engine engine;
    hsim::Machine machine(&engine, hsim::MachineConfig{});
    KernelConfig config;
    config.cluster_size = 4;
    config.lock_kind = lock_kind;
    KernelSystem system(&machine, config);
    bool stop = false;
    for (hsim::ProcId p = 1; p < machine.num_processors(); ++p) {
      engine.Spawn(system.IdleLoop(machine.processor(p), &stop));
    }
    struct Out {
      double null_rpc_us = 0;
      double replicate_us = 0;
    } out;
    Program& prog = system.CreateProgram();
    engine.Spawn([](KernelSystem* sys, Program* pr, hsim::Processor* p, Out* o, bool* stop_flag)
                     -> hsim::Task<void> {
      // Null RPC round trip (averaged).
      constexpr int kRounds = 8;
      const hsim::Tick t0 = p->now();
      for (int i = 0; i < kRounds; ++i) {
        co_await sys->NullRpc(*p, /*target_cluster=*/1);
      }
      o->null_rpc_us = hsim::TicksToUs(p->now() - t0) / kRounds;

      // Replication cost: a fault on a remote-homed page minus a fault on the
      // same (now local) descriptor isolates the cluster-wide lookup +
      // replicate portion.
      const std::uint64_t page = KernelSystem::MakePage(/*home_proc=*/4, 7);
      FaultOutcome first;
      co_await sys->PageFault(*p, *pr, page, &first);
      FaultOutcome second;
      co_await sys->PageFault(*p, *pr, page, &second);
      o->replicate_us = hsim::TicksToUs(first.total - second.total);
      *stop_flag = true;
    }(&system, &prog, &machine.processor(0), &out, &stop));
    engine.RunUntilIdle();
    result.null_rpc_us = out.null_rpc_us;
    result.replicate_us = out.replicate_us;
  }

  return result;
}

}  // namespace hkernel
