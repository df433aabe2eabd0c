#include "src/hkernel/rpc.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/hflight/flight.h"
#include "src/hkernel/kernel.h"
#include "src/hmetrics/trace.h"
#include "src/hsim/engine.h"
#include "src/hsim/fault.h"

namespace hkernel {

namespace {

// Terminal fate of a flight record for an RPC leg.  kWouldDeadlock is the
// optimistic protocol's back-off signal -- the caller retries, so the leg
// itself ended in rejection, not error.
hflight::Fate FateOf(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk:
      return hflight::Fate::kOk;
    case RpcStatus::kNotFound:
      return hflight::Fate::kNotFound;
    case RpcStatus::kWouldDeadlock:
      return hflight::Fate::kRejected;
    case RpcStatus::kPending:
      break;
  }
  return hflight::Fate::kError;
}

// Transports a packet to the target processor after the interrupt-delivery
// latency.  Runs as a detached engine task; the packet travels by value, so
// duplicates and late copies have no lifetime tie to the initiator's frame.
// Fallback path only: the pooled variant below is the normal wire.
hsim::Task<void> DeliverAfter(hsim::Engine* engine, hsim::Tick transit, CpuKernel* target,
                              RpcPacket packet) {
  co_await engine->Delay(transit);
  target->Deliver(packet);
}

// Pooled wire buffer: the envelope was allocated from the packet pool at the
// sender's cluster and is returned to it at the receiver's, so every
// cross-cluster packet contributes alloc/free drift to the slab depot exactly
// as a real wire buffer would migrate between per-node caches.
hsim::Task<void> DeliverAfterPooled(hsim::Engine* engine, hsim::Tick transit, CpuKernel* target,
                                    halloc::SlabAllocator<RpcPacket>* pool,
                                    hsim::ProcId target_proc, RpcPacket* env) {
  co_await engine->Delay(transit);
  target->Deliver(*env);
  pool->FreeFor(target_proc, env);
}

}  // namespace

void CpuKernel::Unmask() {
  if (mask_depth_ <= 0) {
    std::fprintf(stderr,
                 "hkernel: unbalanced CpuKernel::Unmask on processor %u (mask depth %d); the "
                 "soft interrupt gate would stay open inside the next critical section\n",
                 id_, mask_depth_);
    std::abort();
  }
  --mask_depth_;
}

void CpuKernel::SendPacket(hsim::Processor& p, hsim::ProcId target, const RpcPacket& packet) {
  const KernelConfig& cfg = system_->config();
  hsim::Machine& machine = system_->machine();
  hsim::Engine& engine = machine.engine();
  CpuKernel& dest = system_->cpu(target);
  halloc::SlabAllocator<RpcPacket>& pool = system_->packet_pool();

  // Launches one delivery: envelope from the pool (allocated at this
  // processor's cluster, freed at the target's) or, if the pool is dry under
  // a fault storm, the by-value fallback.
  const auto launch = [&](hsim::Tick transit) {
    RpcPacket* env = pool.AllocFor(p.id());
    if (env != nullptr) {
      *env = packet;
      engine.Spawn(DeliverAfterPooled(&engine, transit, &dest, &pool, target, env));
    } else {
      ++system_->counters().rpc_pool_fallbacks;
      engine.Spawn(DeliverAfter(&engine, transit, &dest, packet));
    }
  };

  const hsim::FaultPlan::Decision decision = hsim::RouteSend(
      machine.fault_plan(), packet, p.id(), target, p.now(), cfg.rpc_transit, launch);
  if (machine.trace_enabled(hmetrics::kTraceRpc) && (decision.drop || decision.duplicate)) {
    machine.trace()->Instant(hmetrics::kTraceRpc,
                             decision.drop ? "rpc/fault_drop" : "rpc/fault_dup", p.id(),
                             p.now());
  }
}

void CpuKernel::Deliver(const RpcPacket& packet) {
  if (!packet.is_reply) {
    inbox_.push_back(packet);
  } else if (!call_.Offer(packet)) {
    // A duplicate of a reply we already consumed, or a reply delayed past its
    // retransmit-satisfied call.  Exact-once: discard, count.
    ++system_->counters().rpc_dup_replies;
  }
}

hsim::Task<void> CpuKernel::RunHandlers(hsim::Processor& p, std::deque<RpcPacket>* queue,
                                        int budget) {
  const KernelConfig& cfg = system_->config();
  hsim::Machine& machine = system_->machine();
  std::uint64_t batch = 0;
  while (!queue->empty() && budget-- > 0) {
    RpcPacket packet = queue->front();
    queue->pop_front();
    ++batch;

    // Dedup: a retransmit of the in-flight request, or of anything already
    // completed, must not re-run the handler (exact-once).  For the last
    // completed request the cached reply is retransmitted -- the initiator is
    // still waiting iff the original reply was lost.
    hsim::DedupWindow<RpcPacket>& window = peers_[packet.src_proc];
    if (window.Admit(packet.seq) != hsim::Admission::kFresh) {
      ++system_->counters().rpc_dup_requests;
      co_await p.Compute(cfg.rpc_dispatch / 2);
      // Asked again after the await: a co-located context may have completed
      // a newer request from this source meanwhile (a refusal is stable, the
      // resend verdict is not), and the resend carries the cache as it is then.
      if (window.Admit(packet.seq) == hsim::Admission::kResend) {
        co_await p.Compute(cfg.rpc_reply);
        SendPacket(p, packet.src_proc, window.cached());
      }
      continue;
    }

    ++handled_;
    in_handler_ = true;
    hmetrics::TraceSession* tr =
        machine.trace_enabled(hmetrics::kTraceRpc) ? machine.trace() : nullptr;
    hmetrics::TraceSession::SpanId span = 0;
    if (tr != nullptr) {
      span = tr->BeginSpan(hmetrics::kTraceRpc, "rpc/handle", p.id(), p.now());
      tr->AddArg(span, "op", RpcOpName(packet.op));
    }
    // Causally linked child record: its clock starts at the initiator's send
    // instant, so the inbox phase is the full wire + delivery-queue delay.
    // Only the first execution opens one -- dedup hits above never get here.
    hflight::FlightRecorder* flight = system_->flight();
    hflight::FlightRecord* frec = nullptr;
    if (flight != nullptr && packet.flight_id != 0) {
      frec = flight->Open(system_->cluster_of_proc(id_),
                          std::min<std::uint64_t>(packet.flight_send, p.now()),
                          packet.flight_id);
      frec->enqueue = frec->begin;
      frec->start = p.now();
      frec->exec = p.now();
    }
    co_await p.Compute(cfg.rpc_dispatch);
    co_await system_->HandleRpc(p, packet);
    co_await p.Compute(cfg.rpc_reply);
    in_handler_ = false;
    assert(packet.status != RpcStatus::kPending);
    ++system_->counters().rpc_ops_applied;
    packet.is_reply = true;
    window.Complete(packet.seq, packet);
    if (frec != nullptr) {
      frec->done = p.now();
      flight->Close(frec, FateOf(packet.status), p.now());
    }
    if (tr != nullptr) {
      tr->EndSpan(span, p.now());
    }
    // The reply travels back to the initiator through the (possibly faulty)
    // transport; if it is lost, the initiator's retransmit will hit the dedup
    // path above and resend the cached copy.
    SendPacket(p, packet.src_proc, packet);
  }
  if (batch > 0 && system_->rpc_batch_depth_hist() != nullptr) {
    system_->rpc_batch_depth_hist()->Record(batch);
  }
}

hsim::Task<void> CpuKernel::TakeInterrupts(hsim::Processor& p) {
  // IrqPoint came here only outside a handler: handlers are not re-entered,
  // so nested work waits for the outer handler.
  if (masked()) {
    // The gate is closed: take the interrupts but defer the work, exactly as
    // the paper's per-processor work queue does.  The handler-entry cost is
    // paid now; the work itself runs when the gate opens.  The request is
    // popped *before* the await: co-located interrupt points interleave at
    // awaits, and two of them must never defer the same request.
    while (!inbox_.empty()) {
      RpcPacket packet = inbox_.front();
      inbox_.pop_front();
      co_await p.Compute(system_->config().rpc_dispatch / 2);
      deferred_.push_back(packet);
      ++deferred_total_;
    }
    co_return;
  }
  // Bound the work done per interrupt point: servicing at most a couple of
  // requests before returning control lets the interrupted kernel path make
  // progress even under a retry storm (otherwise a reserve-bit holder can be
  // livelocked into never clearing the bit the retries are waiting for).
  int budget = system_->config().irq_batch;
  if (!deferred_.empty()) {
    co_await RunHandlers(p, &deferred_, budget);
    budget = 0;
  }
  if (budget > 0 && !inbox_.empty()) {
    co_await RunHandlers(p, &inbox_, budget);
  }
}

hsim::Task<void> CpuKernel::Call(hsim::Processor& p, hsim::ProcId target, RpcPacket* request) {
  assert(!masked() && "RPCs must not be issued while holding coarse locks");
  assert(target != id_ && "RPC to self would deadlock");
  const KernelConfig& cfg = system_->config();
  request->seq = call_.Begin();
  request->status = RpcStatus::kPending;
  request->src_proc = id_;
  request->src_cluster = system_->cluster_of_proc(id_);
  ++system_->counters().rpcs;

  // Caller-side flight record: the whole Call is one rpc-phase leg (the
  // pre-send stamps collapse to begin, so Finalize attributes the full span
  // to rpc).  The id and send instant travel on the wire for the child link.
  hflight::FlightRecorder* flight = system_->flight();
  hflight::FlightRecord* frec = nullptr;
  std::uint64_t call_retransmits = 0;
  if (flight != nullptr) {
    frec = flight->Open(request->src_cluster, p.now());
    frec->enqueue = frec->begin;
    frec->start = frec->begin;
    frec->exec = frec->begin;
    request->flight_id = frec->id;
    request->flight_send = p.now();
  }

  hsim::Machine& machine = system_->machine();
  hmetrics::TraceSession* tr =
      machine.trace_enabled(hmetrics::kTraceRpc) ? machine.trace() : nullptr;
  hmetrics::TraceSession::SpanId span = 0;
  if (tr != nullptr) {
    span = tr->BeginSpan(hmetrics::kTraceRpc, "rpc/call", p.id(), p.now());
    tr->AddArg(span, "op", RpcOpName(request->op));
    tr->AddArg(span, "target", std::to_string(target));
  }

  co_await p.Compute(cfg.rpc_send);
  SendPacket(p, target, *request);

  // Wait for the reply.  The processor itself is a schedulable resource: keep
  // servicing our own incoming requests, otherwise two processors calling
  // each other deadlock (Section 2.3).  A lost request or reply surfaces as a
  // timeout; the retransmit reuses the sequence number, so the target either
  // re-delivers its cached reply or is still working on the original.
  hsim::Tick timeout = cfg.rpc_timeout;
  hsim::Tick deadline = p.now() + timeout;
  while (!call_.done()) {
    co_await IrqPoint(p);
    co_await p.Compute(cfg.rpc_poll);
    if (!call_.done() && p.now() >= deadline) {
      ++system_->counters().rpc_retransmits;
      ++call_retransmits;
      if (tr != nullptr) {
        hmetrics::TraceSession::SpanId rspan =
            tr->BeginSpan(hmetrics::kTraceRpc, "rpc/retransmit", p.id(), p.now());
        tr->AddArg(rspan, "op", RpcOpName(request->op));
        tr->AddArg(rspan, "seq", std::to_string(request->seq));
        tr->EndSpan(rspan, p.now() + cfg.rpc_send);
      }
      co_await p.Compute(cfg.rpc_send);
      SendPacket(p, target, *request);
      // Exponential backoff with jitter: synchronized losers must not
      // retransmit in lockstep into the same congested target.
      timeout = std::min<hsim::Tick>(timeout * 2, cfg.rpc_timeout_cap);
      deadline = p.now() + timeout / 2 + p.rng().NextBelow(timeout / 2 + 1);
    }
  }
  request->status = call_.reply().status;
  request->payload = call_.reply().payload;
  call_.Close();
  co_await p.Compute(cfg.rpc_recv);
  assert(request->status != RpcStatus::kPending);
  if (frec != nullptr) {
    frec->AddRpc(p.now() - frec->begin, call_retransmits);
    frec->done = p.now();
    flight->Close(frec, FateOf(request->status), p.now());
  }
  if (tr != nullptr) {
    tr->EndSpan(span, p.now());
  }
}

}  // namespace hkernel
