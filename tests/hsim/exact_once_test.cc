// Seeded property test for the exact-once channel core (src/hsim/exact_once.h),
// independent of either transport that uses it: several stop-and-wait
// initiators call one target over a FaultPlan that drops, duplicates and
// delays both legs.  Every call must be applied exactly once and complete
// with its own reply, and a rerun with the same seed must replay identically.

#include "src/hsim/exact_once.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/hsim/engine.h"
#include "src/hsim/fault.h"
#include "src/hsim/task.h"

namespace hsim {
namespace {

struct Packet {
  bool is_reply = false;
  std::uint64_t seq = 0;
  std::uint8_t op = 0;
  std::uint32_t src = 0;     // the initiator; replies travel back to it
  std::uint64_t value = 0;   // the reply's answer
};

constexpr std::uint32_t kInitiators = 4;
constexpr std::uint32_t kTarget = kInitiators;  // node id of the target
constexpr int kCallsEach = 40;
constexpr Tick kTransit = 100;
constexpr Tick kService = 150;  // handler time: retransmits land mid-handler
constexpr Tick kPoll = 20;
constexpr Tick kTimeout = 300;
constexpr Tick kTimeoutCap = 2400;

std::uint64_t Answer(std::uint32_t src, std::uint64_t seq) { return src * 1000003ULL + seq * 7; }

struct Outcome {
  std::vector<std::uint64_t> apply_order;  // (src << 32 | seq) in apply order
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> applied;
  std::uint64_t completed = 0;
  std::uint64_t wrong_replies = 0;
  std::uint64_t stale_replies = 0;
  std::uint64_t resends = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
  Tick end = 0;
  FaultPlan::Counters faults;

  bool operator==(const Outcome& o) const {
    return apply_order == o.apply_order && applied == o.applied && completed == o.completed &&
           wrong_replies == o.wrong_replies && stale_replies == o.stale_replies &&
           resends == o.resends && drops == o.drops && retransmits == o.retransmits &&
           end == o.end && faults.dropped() == o.faults.dropped() &&
           faults.duplicated() == o.faults.duplicated() &&
           faults.requests_delayed == o.faults.requests_delayed &&
           faults.replies_delayed == o.faults.replies_delayed;
  }
};

class Net {
 public:
  explicit Net(std::uint64_t seed) : plan_(Faults(seed)), slots_(kInitiators),
                                     windows_(kInitiators) {}

  Outcome Run() {
    engine_.Spawn(Server());
    for (std::uint32_t i = 0; i < kInitiators; ++i) {
      engine_.Spawn(Initiator(i));
    }
    out_.end = engine_.RunUntilIdle();
    out_.faults = plan_.counters();
    return out_;
  }

 private:
  static FaultConfig Faults(std::uint64_t seed) {
    FaultConfig c;
    c.drop_request = 0.15;
    c.drop_reply = 0.15;
    c.dup_request = 0.15;
    c.dup_reply = 0.15;
    c.delay_request = 0.2;
    c.delay_reply = 0.2;
    c.max_extra_delay = 400;
    c.seed = seed;
    return c;
  }

  void Send(const Packet& packet, std::uint32_t src, std::uint32_t dst) {
    RouteSend(&plan_, packet, src, dst, engine_.now(), kTransit,
              [&](Tick delay) { engine_.Spawn(DeliverAfter(packet, delay)); });
  }

  Task<void> DeliverAfter(Packet packet, Tick delay) {
    co_await engine_.Delay(delay);
    if (!packet.is_reply) {
      inbox_.push_back(packet);
    } else if (!slots_[packet.src].Offer(packet)) {
      ++out_.stale_replies;
    }
  }

  Task<void> Server() {
    while (finished_ < kInitiators) {
      if (inbox_.empty()) {
        co_await engine_.Delay(kPoll);
        continue;
      }
      const Packet request = inbox_.front();
      inbox_.pop_front();
      switch (windows_[request.src].Admit(request.seq)) {
        case Admission::kFresh:
          engine_.Spawn(Handle(request));
          break;
        case Admission::kResend:
          ++out_.resends;
          Send(windows_[request.src].cached(), kTarget, request.src);
          break;
        case Admission::kDrop:
          ++out_.drops;
          break;
      }
    }
  }

  Task<void> Handle(Packet request) {
    co_await engine_.Delay(kService);
    ++out_.applied[{request.src, request.seq}];
    out_.apply_order.push_back(std::uint64_t{request.src} << 32 | request.seq);
    Packet reply = request;
    reply.is_reply = true;
    reply.value = Answer(request.src, request.seq);
    windows_[request.src].Complete(request.seq, reply);
    Send(reply, kTarget, request.src);
  }

  Task<void> Initiator(std::uint32_t self) {
    CallSlot<Packet>& slot = slots_[self];
    for (int call = 0; call < kCallsEach; ++call) {
      Packet request;
      request.seq = slot.Begin();
      request.src = self;
      Send(request, self, kTarget);
      Tick timeout = kTimeout;
      Tick deadline = engine_.now() + timeout;
      while (!slot.done()) {
        co_await engine_.Delay(kPoll);
        if (!slot.done() && engine_.now() >= deadline) {
          ++out_.retransmits;
          Send(request, self, kTarget);
          timeout = std::min(timeout * 2, kTimeoutCap);
          deadline = engine_.now() + timeout;
        }
      }
      const Packet& reply = slot.reply();
      if (reply.seq != request.seq || reply.src != self ||
          reply.value != Answer(self, request.seq)) {
        ++out_.wrong_replies;
      }
      slot.Close();
      ++out_.completed;
    }
    ++finished_;
  }

  Engine engine_;
  FaultPlan plan_;
  std::vector<CallSlot<Packet>> slots_;
  std::vector<DedupWindow<Packet>> windows_;
  std::deque<Packet> inbox_;
  std::uint32_t finished_ = 0;
  Outcome out_;
};

TEST(ExactOnceTest, EveryCallAppliedOnceWithItsOwnReplyUnderFaults) {
  for (std::uint64_t seed : {1ULL, 7ULL, 0x5eedULL}) {
    SCOPED_TRACE(seed);
    const Outcome out = Net(seed).Run();
    EXPECT_EQ(out.completed, std::uint64_t{kInitiators} * kCallsEach);
    EXPECT_EQ(out.wrong_replies, 0u);
    EXPECT_EQ(out.apply_order.size(), std::size_t{kInitiators} * kCallsEach);
    for (std::uint32_t i = 0; i < kInitiators; ++i) {
      for (std::uint64_t seq = 1; seq <= kCallsEach; ++seq) {
        const auto it = out.applied.find({i, seq});
        ASSERT_NE(it, out.applied.end()) << "initiator " << i << " seq " << seq;
        EXPECT_EQ(it->second, 1) << "initiator " << i << " seq " << seq;
      }
    }
    // The run exercised every recovery path, not just the happy one.
    EXPECT_GT(out.faults.requests_dropped, 0u);
    EXPECT_GT(out.faults.replies_dropped, 0u);
    EXPECT_GT(out.faults.requests_duplicated, 0u);
    EXPECT_GT(out.faults.replies_duplicated, 0u);
    EXPECT_GT(out.retransmits, 0u);
    EXPECT_GT(out.resends, 0u);
    EXPECT_GT(out.drops, 0u);
    EXPECT_GT(out.stale_replies, 0u);
  }
}

TEST(ExactOnceTest, SameSeedReplaysIdentically) {
  const Outcome a = Net(42).Run();
  const Outcome b = Net(42).Run();
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == Net(43).Run()) << "the seed must matter";
}

TEST(ExactOnceTest, OfferTakesOnlyTheOpenCallsFirstReply) {
  CallSlot<Packet> slot;
  Packet reply;
  reply.is_reply = true;
  reply.seq = 1;
  EXPECT_FALSE(slot.Offer(reply)) << "no call is open";
  EXPECT_EQ(slot.Begin(), 1u);
  reply.seq = 2;
  EXPECT_FALSE(slot.Offer(reply)) << "wrong sequence number";
  reply.seq = 1;
  EXPECT_TRUE(slot.Offer(reply));
  EXPECT_FALSE(slot.Offer(reply)) << "duplicate of a consumed reply";
  slot.Close();
  // A voided call keeps the counter: its late reply cannot match the next.
  EXPECT_EQ(slot.Begin(), 2u);
  slot.Close();
  EXPECT_EQ(slot.Begin(), 3u);
  reply.seq = 2;
  EXPECT_FALSE(slot.Offer(reply));
}

TEST(ExactOnceTest, WindowClassifiesRetransmits) {
  DedupWindow<Packet> w;
  EXPECT_EQ(w.Admit(1), Admission::kFresh);
  EXPECT_EQ(w.Admit(1), Admission::kDrop) << "still executing";
  Packet reply;
  reply.seq = 1;
  reply.value = 99;
  w.Complete(1, reply);
  EXPECT_EQ(w.Admit(1), Admission::kResend);
  EXPECT_EQ(w.cached().value, 99u);
  EXPECT_EQ(w.Admit(2), Admission::kFresh);
  w.Complete(2, reply);
  EXPECT_EQ(w.Admit(1), Admission::kDrop) << "older than the cached reply";
}

TEST(ExactOnceDeathTest, OverlappingBeginAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        CallSlot<Packet> slot;
        slot.Begin();
        slot.Begin();
      },
      "stop-and-wait");
}

}  // namespace
}  // namespace hsim
