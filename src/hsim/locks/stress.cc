#include "src/hsim/locks/stress.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/hsim/engine.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"

namespace hsim {
namespace {

struct Shared {
  SimLock* lock;
  LatencyRecorder* recorder;
  std::uint64_t acquisitions = 0;
  std::uint64_t window_ops = 0;
  Tick warm_end;
  Tick deadline;
  Tick hold;
  Tick think;
};

Task<void> StressDriver(Processor* p, Shared* shared) {
  while (p->now() < shared->deadline) {
    const Tick t0 = p->now();
    co_await shared->lock->Acquire(*p);
    const Tick t1 = p->now();
    ++shared->acquisitions;
    if (t1 >= shared->warm_end && t1 <= shared->deadline) {
      ++shared->window_ops;
    }
    if (t0 >= shared->warm_end && t1 <= shared->deadline) {
      shared->recorder->Record(t1 - t0);
    }
    co_await p->Compute(shared->hold);
    co_await shared->lock->Release(*p);
    if (shared->think > 0) {
      co_await p->Compute(shared->think);
    }
  }
}

}  // namespace

LockStressResult RunLockStress(const LockStressParams& params) {
  Engine engine;
  Machine machine(&engine, params.machine);
  machine.set_trace(params.trace);
  std::unique_ptr<SimLock> lock = MakeSimLock(&machine, params.kind, params.lock_home);
  lock->set_site(params.site);

  LockStressResult result;
  Shared shared;
  shared.lock = lock.get();
  shared.recorder = &result.acquire_latency;
  shared.warm_end = params.warmup;
  shared.deadline = params.warmup + params.duration;
  shared.hold = params.hold;
  shared.think = params.think;

  for (std::uint32_t p = 0; p < params.processors; ++p) {
    engine.Spawn(StressDriver(&machine.processor(p), &shared));
  }
  engine.RunUntilIdle();

  result.acquisitions = shared.acquisitions;
  result.window_ops = shared.window_ops;
  result.processors = params.processors;
  result.window = params.duration;
  if (auto* spin = dynamic_cast<SimSpinLock*>(lock.get())) {
    result.spin_retries = spin->core().retries();
  }
  if (auto* mcs = dynamic_cast<SimMcsLock*>(lock.get())) {
    result.mcs_repairs = mcs->core().repairs();
  }
  const Tick end = engine.now();
  result.lock_module_utilization =
      end > 0 ? static_cast<double>(machine.memory(params.lock_home).total_busy()) /
                    static_cast<double>(end)
              : 0.0;
  result.bus_wait = machine.total_bus_wait();
  result.mem_wait = machine.total_memory_wait();
  result.end_tick = end;
  result.events = engine.events_processed();

  return result;
}

namespace {

struct RwShared {
  SimLock* lock;
  SimDrwLock* drw;  // non-null iff the kind routes shared ops to the RW path
  RwStressResult* result;
  std::uint32_t write_every;
  Tick warm_end;
  Tick deadline;
  Tick hold_read;
  Tick hold_write;
  Tick think;
};

// One processor's deterministic read/write mix.  The op counter starts at the
// processor index so the exclusive ops are staggered instead of every
// processor writing in lockstep.
Task<void> RwDriver(Processor* p, RwShared* shared, std::uint32_t index) {
  std::uint64_t op = index;
  while (p->now() < shared->deadline) {
    const bool write =
        shared->write_every != 0 && op % shared->write_every == 0;
    ++op;
    const Tick t0 = p->now();
    if (write || shared->drw == nullptr) {
      co_await shared->lock->Acquire(*p);
    } else {
      co_await shared->drw->core().AcquireShared(*p);
    }
    const Tick t1 = p->now();
    if (t1 >= shared->warm_end && t1 <= shared->deadline) {
      if (write) {
        ++shared->result->write_ops;
      } else {
        ++shared->result->read_ops;
      }
      if (t0 >= shared->warm_end) {
        (write ? shared->result->write_latency : shared->result->read_latency)
            .Record(t1 - t0);
      }
    }
    co_await p->Compute(write ? shared->hold_write : shared->hold_read);
    if (write || shared->drw == nullptr) {
      co_await shared->lock->Release(*p);
    } else {
      co_await shared->drw->core().ReleaseShared(*p);
    }
    if (shared->think > 0) {
      co_await p->Compute(shared->think);
    }
  }
}

}  // namespace

RwStressResult RunRwLockStress(const RwStressParams& params) {
  Engine engine;
  Machine machine(&engine, params.machine);
  std::unique_ptr<SimLock> lock =
      MakeSimLock(&machine, params.kind, params.lock_home);
  auto* drw = dynamic_cast<SimDrwLock*>(lock.get());

  RwStressResult result;
  RwShared shared;
  shared.lock = lock.get();
  shared.drw = drw;
  shared.result = &result;
  shared.write_every = params.write_every;
  shared.warm_end = params.warmup;
  shared.deadline = params.warmup + params.duration;
  shared.hold_read = params.hold_read;
  shared.hold_write = params.hold_write;
  shared.think = params.think;

  for (std::uint32_t p = 0; p < params.processors; ++p) {
    engine.Spawn(RwDriver(&machine.processor(p), &shared, p));
  }
  engine.RunUntilIdle();
  result.processors = params.processors;
  result.window = params.duration;
  return result;
}

namespace {

// One processor's life in the profiled contention scenario: a globally shared
// critical section followed by a station-local one, forever.
Task<void> ContentionDriver(Processor* p, SimLock* shared, SimLock* local,
                            const ProfiledContentionParams* params,
                            ProfiledContentionResult* result, Tick deadline) {
  while (p->now() < deadline) {
    co_await shared->Acquire(*p);
    ++result->shared_acquisitions;
    co_await p->Compute(params->hold_shared);
    co_await shared->Release(*p);
    if (params->think > 0) {
      co_await p->Compute(params->think);
    }
    co_await local->Acquire(*p);
    ++result->local_acquisitions;
    co_await p->Compute(params->hold_local);
    co_await local->Release(*p);
    if (params->think > 0) {
      co_await p->Compute(params->think);
    }
  }
}

}  // namespace

ProfiledContentionResult RunProfiledContention(const ProfiledContentionParams& params,
                                               hprof::SiteTable* sites) {
  Engine engine;
  Machine machine(&engine, params.machine);
  machine.set_trace(params.trace);
  const std::uint32_t ppc = params.machine.modules_per_station;

  // The shared lock lives on module 0 (cluster 0's memory): every other
  // cluster pays ring crossings to reach it, exactly the Figure 5 setup.
  std::unique_ptr<SimLock> shared = MakeSimLock(&machine, params.kind, /*home=*/0);
  if (sites != nullptr) {
    shared->set_site(&sites->AddSite("kernel/shared", ppc));
  }
  std::vector<std::unique_ptr<SimLock>> locals;
  for (std::uint32_t s = 0; s < params.machine.stations; ++s) {
    locals.push_back(MakeSimLock(&machine, params.kind, /*home=*/s * ppc));
    if (sites != nullptr) {
      locals.back()->set_site(
          &sites->AddSite("cluster" + std::to_string(s) + "/local", ppc));
    }
  }

  ProfiledContentionResult result;
  const Tick deadline = params.warmup + params.duration;
  const std::uint32_t nprocs =
      std::min(params.processors, params.machine.num_processors());
  for (std::uint32_t p = 0; p < nprocs; ++p) {
    engine.Spawn(ContentionDriver(&machine.processor(p), shared.get(),
                                  locals[p / ppc].get(), &params, &result, deadline));
  }
  engine.RunUntilIdle();
  return result;
}

double UncontendedPairLatencyUs(LockKind kind, int rounds) {
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  // Kernel locks are rarely local to the requester: place the lock word one
  // ring hop away from the measuring processor.
  std::unique_ptr<SimLock> lock = MakeSimLock(&machine, kind, /*home=*/4);
  Tick total = 0;
  engine.Spawn([](Processor* p, SimLock* l, int n, Tick* out) -> Task<void> {
    // Warm-up pair.
    co_await l->Acquire(*p);
    co_await l->Release(*p);
    for (int i = 0; i < n; ++i) {
      // Measurement-loop overhead between pairs lets in-flight store halves
      // drain, so each pair is timed cold as the paper's numbers are.
      co_await p->Compute(64);
      const Tick t0 = p->now();
      co_await l->Acquire(*p);
      co_await l->Release(*p);
      *out += p->now() - t0;
    }
  }(&machine.processor(0), lock.get(), rounds, &total));
  engine.RunUntilIdle();
  return TicksToUs(total) / rounds;
}

}  // namespace hsim
