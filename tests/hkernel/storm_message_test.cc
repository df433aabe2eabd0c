// Regression tests for the CallWithRetry storm watchdog's diagnostic.  The
// watchdog used to bump rpc_retry_storms silently, and the only breadcrumb a
// log could carry was the op code -- useless for a multi-machine mesh where
// the question is "which machine's handler is refusing us?".  The diagnostic
// must name the destination machine id (KernelConfig::machine_id) alongside
// the destination cluster/processor and the op.

#include <string>

#include <gtest/gtest.h>

#include "src/hkernel/kernel.h"
#include "src/hkernel/rpc.h"
#include "src/hsim/engine.h"
#include "src/hsim/machine.h"

namespace hkernel {
namespace {

TEST(StormMessageTest, DiagnosticNamesDestinationMachine) {
  const std::string diag = StormDiagnostic(/*machine_id=*/7, /*src=*/2, /*target=*/13,
                                           /*target_cluster=*/3, RpcOp::kProcDeposit,
                                           /*consecutive=*/16);
  EXPECT_NE(diag.find("machine=7"), std::string::npos) << diag;
  EXPECT_NE(diag.find("dst_proc=13"), std::string::npos) << diag;
  EXPECT_NE(diag.find("dst_cluster=3"), std::string::npos) << diag;
  EXPECT_NE(diag.find("src_proc=2"), std::string::npos) << diag;
  EXPECT_NE(diag.find("proc_deposit"), std::string::npos) << diag;
  EXPECT_NE(diag.find("consecutive_refusals=16"), std::string::npos) << diag;
}

TEST(StormMessageTest, DiagnosticDistinguishesMachines) {
  const std::string a =
      StormDiagnostic(0, 0, 4, 1, RpcOp::kGetPage, 16);
  const std::string b =
      StormDiagnostic(5, 0, 4, 1, RpcOp::kGetPage, 16);
  EXPECT_NE(a, b);
  EXPECT_NE(b.find("machine=5"), std::string::npos) << b;
}

// Behavioral check: a live storm (handler refusing with kWouldDeadlock past
// the threshold) emits the diagnostic on stderr with the configured machine
// id, exactly once per storm, and bumps the counter.
TEST(StormMessageTest, LiveStormEmitsMachineIdOnce) {
  hsim::Engine engine;
  hsim::Machine machine(&engine, hsim::MachineConfig{});
  KernelConfig config;
  config.cluster_size = 4;
  config.machine_id = 9;
  config.rpc_storm_threshold = 3;
  // Keep the scripted storm short: retries back off toward this cap.
  config.rpc_retry_backoff = 512;
  KernelSystem system(&machine, config);

  // The aux handler refuses the first `threshold` attempts, then succeeds --
  // one full storm, then recovery.
  int refusals_left = config.rpc_storm_threshold;
  system.set_aux_handler(
      [&refusals_left](hsim::Processor&, RpcPacket& request) -> hsim::Task<void> {
        request.status =
            refusals_left-- > 0 ? RpcStatus::kWouldDeadlock : RpcStatus::kOk;
        co_return;
      });

  bool stop = false;
  for (hsim::ProcId p = 1; p < machine.num_processors(); ++p) {
    engine.Spawn(system.IdleLoop(machine.processor(p), &stop));
  }
  engine.Spawn([](KernelSystem* sys, hsim::Machine* m, bool* stop_flag) -> hsim::Task<void> {
    hsim::Processor& p = m->processor(0);
    RpcPacket request;
    request.op = RpcOp::kProcDeposit;
    co_await sys->CallWithRetry(p, sys->PeerOf(p.id(), /*target_cluster=*/1), &request);
    EXPECT_EQ(request.status, RpcStatus::kOk);
    *stop_flag = true;
  }(&system, &machine, &stop));

  testing::internal::CaptureStderr();
  engine.RunUntilIdle();
  const std::string log = testing::internal::GetCapturedStderr();

  EXPECT_EQ(system.counters().rpc_retry_storms, 1u);
  EXPECT_NE(log.find("rpc retry storm"), std::string::npos) << log;
  EXPECT_NE(log.find("machine=9"), std::string::npos) << log;
  EXPECT_NE(log.find("proc_deposit"), std::string::npos) << log;
  // Escalation fires once per storm, not once per refusal past the threshold.
  EXPECT_EQ(log.find("rpc retry storm"), log.rfind("rpc retry storm")) << log;
}

}  // namespace
}  // namespace hkernel
