// Extension experiment: the Section 2.5 "program destruction" lesson,
// quantified.
//
// A parallel program (one root + one child per processor, spread over the
// clusters) is torn down all at once while its processes are still messaging
// the root -- the workload the paper says made deadlock-avoidance retries
// common.  Two designs are compared:
//
//   combined      -- family-tree links live inside the process descriptors
//                    that message passing reserves (HURRICANE's design);
//                    remote unlink handlers must fail on a reserved
//                    descriptor, so destruction storms retry.
//   separate-tree -- tree links in their own structure, locked in tree order
//                    only; remote unlinks never fail (the design the paper
//                    wishes it had used).

#include <cstdio>
#include <memory>
#include <vector>

#include "src/hkernel/process.h"
#include "src/hmetrics/bench_main.h"
#include "src/hsim/engine.h"
#include "src/hsim/machine.h"

namespace {

using hkernel::kNoPid;
using hkernel::Pid;
using hkernel::ProcessManager;
using hkernel::TreePolicy;

struct Result {
  double teardown_us;
  ProcessManager::Stats stats;
};

Result Run(TreePolicy policy, std::uint32_t cluster_size, int messages_per_child) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  hkernel::KernelConfig config;
  config.cluster_size = cluster_size;
  hkernel::KernelSystem system(&machine, config);
  ProcessManager pm(&system, policy);
  bool stop = false;
  for (hsim::ProcId p = 0; p < machine.num_processors(); ++p) {
    engine.Spawn(system.IdleLoop(machine.processor(p), &stop));
  }

  struct Shared {
    Pid root = kNoPid;
    std::vector<Pid> children;
    int destroyed = 0;
    hsim::Tick teardown_start = 0;
    hsim::Tick teardown_end = 0;
  };
  auto shared = std::make_shared<Shared>();

  struct Ctx {
    hsim::Engine* engine;
    hsim::Machine* machine;
    hkernel::KernelSystem* system;
    ProcessManager* pm;
    bool* stop;
    int messages;
  } ctx{&engine, &machine, &system, &pm, &stop, messages_per_child};

  engine.Spawn([](Ctx c, std::shared_ptr<Shared> s) -> hsim::Task<void> {
    s->root = co_await c.pm->Create(c.machine->processor(0), 0, kNoPid);
    for (hsim::ProcId proc = 0; proc < 16; ++proc) {
      s->children.push_back(co_await c.pm->Create(c.machine->processor(proc), proc, s->root));
    }
    s->teardown_start = c.engine->now();
    for (hsim::ProcId proc = 0; proc < 16; ++proc) {
      // Each child sends a few last messages to the root, then dies -- all at
      // about the same time (Section 2.5).
      c.engine->Spawn([](Ctx cc, std::shared_ptr<Shared> ss,
                         hsim::ProcId self) -> hsim::Task<void> {
        for (int i = 0; i < cc.messages; ++i) {
          co_await cc.pm->SendMessage(cc.machine->processor(self), ss->root);
        }
        co_await cc.pm->Destroy(cc.machine->processor(self), ss->children[self]);
        if (++ss->destroyed == 16) {
          co_await cc.pm->Destroy(cc.machine->processor(0), ss->root);
          ss->teardown_end = cc.engine->now();
          *cc.stop = true;
        }
      }(c, s, proc));
    }
  }(ctx, shared));
  engine.RunUntilIdle();

  Result result;
  result.teardown_us = hsim::TicksToUs(shared->teardown_end - shared->teardown_start);
  result.stats = pm.stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const hmetrics::BenchOptions opts = hmetrics::ParseBenchArgs(argc, argv);
  hmetrics::BenchReport report("ext_program_destruction");
  report.SetParam("smoke", opts.smoke ? 1 : 0);
  const int messages_per_child = opts.smoke ? 2 : 6;
  report.SetParam("messages_per_child", messages_per_child);
  printf("Extension: parallel program destruction (Section 2.5), 17 processes,\n");
  printf("children messaging the root while the whole program is torn down.\n\n");
  printf("%-14s %8s %14s %12s %10s\n", "tree design", "csize", "teardown(us)", "unlink-rtr",
         "messages");
  for (std::uint32_t cs : {2u, 4u, 8u}) {
    for (TreePolicy policy : {TreePolicy::kCombined, TreePolicy::kSeparateTree}) {
      const Result r = Run(policy, cs, messages_per_child);
      const char* design = policy == TreePolicy::kCombined ? "combined" : "separate-tree";
      printf("%-14s %8u %14.0f %12llu %10llu\n", design, cs, r.teardown_us,
             static_cast<unsigned long long>(r.stats.unlink_retries),
             static_cast<unsigned long long>(r.stats.messages));
      report.AddSeries("teardown", {{"design", design}})
          .AddPoint({{"cluster_size", static_cast<double>(cs)},
                     {"teardown_us", r.teardown_us},
                     {"unlink_retries", static_cast<double>(r.stats.unlink_retries)},
                     {"messages", static_cast<double>(r.stats.messages)}});
    }
  }
  printf("\nReading: with the family tree inside the message-passing descriptors\n"
         "(combined), simultaneous sibling destruction keeps hitting reserved\n"
         "parents and retrying across clusters.  A dedicated tree structure with\n"
         "tree-order locking (what Section 2.5 concludes they should have built)\n"
         "eliminates the retries and shortens the teardown.\n");
  return hmetrics::WriteReport(opts, report) ? 0 : 1;
}
