// The exact-once channel core shared by every simulated RPC transport.
//
// A transport may drop, duplicate or delay any leg (FaultPlan).  Exact-once
// application rests on three pieces, each written once here and templated on
// the transport's packet type (which must carry `bool is_reply`,
// `std::uint64_t seq` and an enum `op`):
//
//   - CallSlot: the initiator's one open call.  Begin() hands out the next
//     sequence number (1, 2, ...); Offer() accepts only the first reply that
//     carries the open call's number, so duplicates and replies delayed past
//     their call are stale.  Close() ends or voids the call but keeps the
//     counter, so a reply from a voided call can never match a later one.
//   - DedupWindow: the target's memory of one source.  Admit() classifies a
//     request as fresh, as a retransmit whose cached reply must be resent,
//     or as a duplicate to drop; Complete() caches the reply.
//   - RouteSend: one send through the fault plan -- drop, delay, or launch a
//     second copy.
//
// A one-deep window is sound only because each CallSlot is stop-and-wait: a
// target never sees sequence number n+1 from a slot before that slot has
// accepted the reply to n.  The retransmit loop (its wait step, timeout and
// jitter) is the caller's policy and stays with the caller.

#ifndef HSIM_EXACT_ONCE_H_
#define HSIM_EXACT_ONCE_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "src/hsim/fault.h"
#include "src/hsim/types.h"

namespace hsim {

template <typename Packet>
class CallSlot {
 public:
  // Opens a call and returns its sequence number.  An overlapping Begin would
  // break the target's one-deep window, so it aborts in every build type.
  std::uint64_t Begin() {
    if (open_) {
      std::fprintf(stderr,
                   "hsim: CallSlot::Begin while seq %llu is still open; an exact-once "
                   "channel is stop-and-wait\n",
                   static_cast<unsigned long long>(seq_));
      std::abort();
    }
    open_ = true;
    done_ = false;
    return ++seq_;
  }

  // Takes `reply` iff it is the first reply to the open call; anything else
  // is stale and the caller counts it.
  bool Offer(const Packet& reply) {
    if (!open_ || done_ || reply.seq != seq_) {
      return false;
    }
    reply_ = reply;
    done_ = true;
    return true;
  }

  // Ends the open call, answered or not.
  void Close() { open_ = false; }

  bool open() const { return open_; }
  bool done() const { return done_; }
  Packet& reply() { return reply_; }

 private:
  std::uint64_t seq_ = 0;
  bool open_ = false;
  bool done_ = false;
  Packet reply_{};
};

enum class Admission : std::uint8_t {
  kFresh,   // run the handler
  kResend,  // retransmit of the last completed request: resend cached()
  kDrop,    // duplicate of a request still running or long completed
};

template <typename Packet>
class DedupWindow {
 public:
  // A request is fresh unless it is the one executing or at or below the
  // last completed one; only the last completed one has a reply to resend.
  // A fresh request becomes the executing one.  From a stop-and-wait source
  // a refusal is stable: a seq Admit has refused is never fresh later.
  Admission Admit(std::uint64_t seq) {
    if (seq == active_ || seq <= last_completed_) {
      return seq == last_completed_ && last_completed_ != 0 ? Admission::kResend
                                                            : Admission::kDrop;
    }
    active_ = seq;
    return Admission::kFresh;
  }

  void Complete(std::uint64_t seq, const Packet& reply) {
    last_completed_ = seq;
    cached_ = reply;
  }

  const Packet& cached() const { return cached_; }

 private:
  std::uint64_t last_completed_ = 0;
  std::uint64_t active_ = 0;
  Packet cached_{};
};

// Sends `packet` from `src` to `dst` through `plan` (nullptr: a perfect
// wire).  `launch(delay)` puts one copy on the wire; it runs not at all on a
// drop, once otherwise, and a second time for a duplicate.  Returns the
// decision so the caller can trace it.
template <typename Packet, typename Launch>
FaultPlan::Decision RouteSend(FaultPlan* plan, const Packet& packet, std::uint32_t src,
                              std::uint32_t dst, Tick now, Tick transit, Launch&& launch) {
  FaultPlan::Decision decision;
  if (plan != nullptr) {
    decision = plan->Decide(packet.is_reply ? FaultLeg::kReply : FaultLeg::kRequest, src, dst,
                            static_cast<std::uint8_t>(packet.op), now);
  }
  if (!decision.drop) {
    launch(transit + decision.extra_delay);
    if (decision.duplicate) {
      launch(transit + decision.dup_extra_delay);
    }
  }
  return decision;
}

}  // namespace hsim

#endif  // HSIM_EXACT_ONCE_H_
