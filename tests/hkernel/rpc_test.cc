// Tests for the RPC layer: routing, latency, the software interrupt gate,
// deferred work, and the processor-as-resource property (serving incoming
// requests while blocked on an outgoing call).

#include "src/hkernel/rpc.h"

#include <gtest/gtest.h>

#include "src/hkernel/kernel.h"
#include "src/hkernel/workloads.h"
#include "src/hsim/engine.h"
#include "src/hsim/machine.h"

namespace hkernel {
namespace {

struct Rig {
  hsim::Engine engine;
  hsim::Machine machine;
  KernelSystem system;
  bool stop = false;

  explicit Rig(std::uint32_t cluster_size = 4)
      : machine(&engine, hsim::MachineConfig{}),
        system(&machine, [cluster_size] {
          KernelConfig c;
          c.cluster_size = cluster_size;
          return c;
        }()) {}

  void IdleAllExcept(std::initializer_list<hsim::ProcId> busy) {
    for (hsim::ProcId p = 0; p < machine.num_processors(); ++p) {
      bool is_busy = false;
      for (hsim::ProcId b : busy) {
        is_busy |= (b == p);
      }
      if (!is_busy) {
        engine.Spawn(system.IdleLoop(machine.processor(p), &stop));
      }
    }
  }
};

TEST(RpcTest, PeerRoutingIsIthToIth) {
  Rig rig(4);
  // Processor 6 is the 2nd processor of cluster 1; its peer in cluster 3 is
  // the 2nd processor of cluster 3.
  EXPECT_EQ(rig.system.PeerOf(6, 3), 14u);
  EXPECT_EQ(rig.system.PeerOf(6, 0), 2u);
  EXPECT_EQ(rig.system.PeerOf(0, 1), 4u);
}

TEST(RpcTest, NullRpcRoundTripNearPaperValue) {
  Rig rig(4);
  rig.IdleAllExcept({0});
  double us = 0;
  rig.engine.Spawn([](Rig* r, double* out) -> hsim::Task<void> {
    const hsim::Tick t0 = r->machine.processor(0).now();
    for (int i = 0; i < 8; ++i) {
      co_await r->system.NullRpc(r->machine.processor(0), 1);
    }
    *out = hsim::TicksToUs(r->machine.processor(0).now() - t0) / 8;
    r->stop = true;
  }(&rig, &us));
  rig.engine.RunUntilIdle();
  // Paper: ~27 us.
  EXPECT_GT(us, 20.0);
  EXPECT_LT(us, 34.0);
}

// Builds a wire packet as the transport would: a self-contained request copy
// from a foreign initiator.
RpcPacket MakePacket(std::uint64_t seq, hsim::ProcId src = 0) {
  RpcPacket packet;
  packet.seq = seq;
  packet.op = RpcOp::kNull;
  packet.src_proc = src;
  return packet;
}

TEST(RpcTest, MaskDefersWorkUntilUnmask) {
  Rig rig(4);
  CpuKernel& target = rig.system.cpu(4);
  hsim::Processor& tp = rig.machine.processor(4);

  target.Mask();
  target.Deliver(MakePacket(1));
  // An interrupt point with the gate closed defers the work.
  rig.engine.Spawn([](CpuKernel* k, hsim::Processor* p) -> hsim::Task<void> {
    co_await k->IrqPoint(*p);
  }(&target, &tp));
  rig.engine.RunUntilIdle();
  EXPECT_EQ(target.deferred_count(), 1u);
  EXPECT_EQ(target.handled(), 0u);

  // Opening the gate and polling runs the deferred handler.
  target.Unmask();
  rig.engine.Spawn([](CpuKernel* k, hsim::Processor* p) -> hsim::Task<void> {
    co_await k->IrqPoint(*p);
  }(&target, &tp));
  rig.engine.RunUntilIdle();
  EXPECT_EQ(target.handled(), 1u);
  EXPECT_EQ(target.backlog(), 0u);
}

TEST(RpcTest, IrqBatchBoundsWorkPerPoint) {
  Rig rig(4);
  CpuKernel& target = rig.system.cpu(4);
  hsim::Processor& tp = rig.machine.processor(4);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    target.Deliver(MakePacket(seq));
  }
  rig.engine.Spawn([](CpuKernel* k, hsim::Processor* p) -> hsim::Task<void> {
    co_await k->IrqPoint(*p);
  }(&target, &tp));
  rig.engine.RunUntilIdle();
  // Only irq_batch (2) requests are serviced per interrupt point: the
  // interrupted kernel path must be able to make progress under a storm.
  EXPECT_EQ(target.handled(), 2u);
}

TEST(RpcTest, DuplicateDeliveriesAreAppliedOnce) {
  Rig rig(4);
  CpuKernel& target = rig.system.cpu(4);
  hsim::Processor& tp = rig.machine.processor(4);
  // Two copies of seq 1 (a transport duplicate) and a stale re-delivery after
  // seq 2 completed.
  target.Deliver(MakePacket(1));
  target.Deliver(MakePacket(1));
  target.Deliver(MakePacket(2));
  target.Deliver(MakePacket(1));
  rig.engine.Spawn([](CpuKernel* k, hsim::Processor* p) -> hsim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await k->IrqPoint(*p);
    }
  }(&target, &tp));
  rig.engine.RunUntilIdle();
  EXPECT_EQ(target.handled(), 2u);
  EXPECT_EQ(rig.system.counters().rpc_ops_applied, 2u);
  EXPECT_EQ(rig.system.counters().rpc_dup_requests, 2u);
  EXPECT_EQ(target.backlog(), 0u);
}

TEST(RpcTest, CrossCallingProcessorsDoNotDeadlock) {
  // P0 (cluster 0) and P4 (cluster 1) call each other at the same time.  Both
  // service their inbox while waiting for their own reply: the processor is a
  // lockable resource and refusing to serve while blocked is the deadlock of
  // Section 2.3.
  Rig rig(4);
  rig.IdleAllExcept({0, 4});
  int done = 0;
  auto call = [](Rig* r, hsim::ProcId self, std::uint32_t target_cluster,
                 int* counter) -> hsim::Task<void> {
    co_await r->system.NullRpc(r->machine.processor(self), target_cluster);
    if (++*counter == 2) {
      r->stop = true;
    }
  };
  rig.engine.Spawn(call(&rig, 0, 1, &done));
  rig.engine.Spawn(call(&rig, 4, 0, &done));
  rig.engine.RunUntilIdle();
  EXPECT_EQ(done, 2);
}

TEST(RpcTest, RpcToBusyProcessorWaitsForInterruptPoint) {
  // The target computes without interrupt points for a while; the RPC is
  // delayed accordingly but not lost.
  Rig rig(4);
  rig.IdleAllExcept({0, 4});
  hsim::Tick reply_at = 0;
  constexpr hsim::Tick kBusy = 4000;
  rig.engine.Spawn([](Rig* r) -> hsim::Task<void> {
    // P4 is deaf for kBusy cycles, then starts polling.
    hsim::Processor& p = r->machine.processor(4);
    co_await p.Compute(kBusy);
    co_await r->system.IdleLoop(p, &r->stop);
  }(&rig));
  rig.engine.Spawn([](Rig* r, hsim::Tick* out) -> hsim::Task<void> {
    co_await r->system.NullRpc(r->machine.processor(0), 1);
    *out = r->machine.processor(0).now();
    r->stop = true;
  }(&rig, &reply_at));
  rig.engine.RunUntilIdle();
  EXPECT_GE(reply_at, kBusy);
}

TEST(RpcTest, DryPacketPoolFallsBackToByValueDelivery) {
  // Every envelope is taken before the call, so both legs travel by value:
  // the fallback is counted and the handler still runs exactly once.
  Rig rig(4);
  rig.IdleAllExcept({0});
  // The pool is per cluster: drain it through one processor of each.
  halloc::SlabAllocator<RpcPacket>& pool = rig.system.packet_pool();
  std::vector<std::pair<hsim::ProcId, RpcPacket*>> held;
  for (hsim::ProcId p = 0; p < rig.machine.num_processors(); p += 4) {
    while (RpcPacket* env = pool.AllocFor(p)) {
      held.emplace_back(p, env);
    }
  }
  ASSERT_EQ(held.size(), pool.capacity());
  rig.engine.Spawn([](Rig* r) -> hsim::Task<void> {
    co_await r->system.NullRpc(r->machine.processor(0), 1);
    r->stop = true;
  }(&rig));
  rig.engine.RunUntilIdle();
  EXPECT_EQ(rig.system.counters().rpc_pool_fallbacks, 2u);  // request and reply
  EXPECT_EQ(rig.system.counters().rpc_ops_applied, 1u);
  EXPECT_EQ(rig.system.cpu(rig.system.PeerOf(0, 1)).handled(), 1u);
  for (const auto& [p, env] : held) {
    pool.FreeFor(p, env);
  }
}

}  // namespace
}  // namespace hkernel
