// Discrete-event engine.
//
// Simulated code suspends on WaitAwaiter, which schedules its own resumption
// at a future tick; the engine resumes suspended coroutines in (tick,
// scheduling order) order, so runs are fully deterministic.  Ties at the same
// tick resume in the order they were scheduled.
//
// Pending waits live in a hashed timing wheel (Varghese & Lauck, SOSP '87) of
// kWheelTicks buckets.  A wait due at tick `t` with `t - now < kWheelTicks`
// is appended to bucket `t % kWheelTicks`, an intrusive FIFO; since every
// wheel wait lies in [now, now + kWheelTicks), a bucket only ever holds waits
// for one tick.  One occupancy bit per bucket lets the next event be found
// with a count-trailing-zeros scan forward from now's bucket.
//
// The queue nodes are the suspended WaitAwaiters themselves: an awaiter lives
// in its coroutine's frame until that coroutine resumes, so scheduling
// allocates nothing.
//
// A wait further out than the wheel goes to a (tick, sequence) heap of far
// waits.  Whenever `now` advances, before any coroutine resumes at the new
// tick, far waits that have come within kWheelTicks of it move into the wheel
// in heap order.  Because `now` only grows, every far wait for a tick is
// scheduled before every wait that goes straight into that tick's bucket, and
// far waits reach the bucket first.  So FIFO order within a bucket is exactly
// scheduling order, and events resume in the same order as with a single
// (tick, sequence) heap.

#ifndef HSIM_ENGINE_H_
#define HSIM_ENGINE_H_

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {

class Engine {
 public:
  // Number of wheel buckets.  A wait due fewer than this many ticks ahead goes
  // straight into the wheel; one further out waits in the far heap first.
  static constexpr Tick kWheelTicks = 1024;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Tick now() const { return now_; }

  // Number of top-level tasks spawned and still running.
  std::uint64_t live_tasks() const { return live_tasks_; }
  std::uint64_t events_processed() const { return events_processed_; }

  // Awaitable: suspend the awaiting coroutine until absolute tick `at`.  It
  // is a plain struct, not a coroutine, so timed holds built on it (resource
  // occupancy, instruction and backoff delays) allocate no frame.  While the
  // coroutine is suspended the awaiter is the engine's queue node, so it must
  // stay where it is: await it at once, as every caller does.  It reads `now`
  // when awaited.
  struct WaitAwaiter {
    Engine* engine;
    Tick at;
    WaitAwaiter* next = nullptr;
    std::coroutine_handle<> handle = {};

    bool await_ready() const noexcept { return at <= engine->now(); }
    void await_suspend(std::coroutine_handle<> suspended) noexcept {
      handle = suspended;
      engine->Schedule(this);
    }
    void await_resume() const noexcept {}
  };

  WaitAwaiter WaitUntil(Tick at) { return WaitAwaiter{this, at}; }

  // Awaitable: suspend for `delta` ticks.
  WaitAwaiter Delay(Tick delta) { return WaitUntil(now_ + delta); }

  // Launches a top-level task.  The task starts at the current tick and its
  // frame is destroyed when it completes.  The task must terminate.
  void Spawn(Task<void> task);

  // Runs events until the queue is empty.  Returns the final tick.
  Tick RunUntilIdle();

  // Runs events with tick <= `until`, then advances now to `until` if events
  // remain (they stay queued).  An `until` before now runs nothing and leaves
  // now unchanged.  Returns true if the queue is empty.
  bool RunUntil(Tick until);

 private:
  static constexpr std::size_t kWords = kWheelTicks / 64;
  static_assert(kWheelTicks % 64 == 0 && (kWheelTicks & (kWheelTicks - 1)) == 0);

  struct Bucket {
    WaitAwaiter* head = nullptr;
    WaitAwaiter* tail = nullptr;
  };

  struct FarWait {
    Tick at;
    std::uint64_t seq;
    WaitAwaiter* waiter;

    // priority_queue is a max-heap; invert so the earliest wait wins.
    bool operator<(const FarWait& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };

  // Queues a suspended awaiter; its `at` is after now (await_ready said so).
  // Inline up to the far-heap push, which is rare and stays out of line.
  void Schedule(WaitAwaiter* waiter) {
    if (waiter->at - now_ < kWheelTicks) {
      Append(waiter);
    } else {
      PushFar(waiter);
    }
  }

  void Append(WaitAwaiter* waiter) {
    const std::size_t slot = waiter->at & (kWheelTicks - 1);
    Bucket& bucket = buckets_[slot];
    if (bucket.tail != nullptr) {
      bucket.tail->next = waiter;
    } else {
      bucket.head = waiter;
      occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    bucket.tail = waiter;
    ++wheel_size_;
  }

  void PushFar(WaitAwaiter* waiter);
  // Tick of the earliest wheel wait; the wheel must not be empty.
  Tick NextWheelTick() const;
  // Sets now to `at` and moves far waits now within the wheel's span into it.
  void AdvanceTo(Tick at);
  // Resumes events in order while the next one is due at or before `until`.
  // While now's bucket holds waits they are the earliest, so they resume
  // without a scan for the next tick.  Returns true if the queue drained.
  bool RunThrough(Tick until);

  Tick now_ = 0;
  std::uint64_t live_tasks_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t wheel_size_ = 0;
  std::array<std::uint64_t, kWords> occupied_ = {};
  std::array<Bucket, kWheelTicks> buckets_ = {};
  std::uint64_t far_seq_ = 0;
  std::priority_queue<FarWait> far_;
};

}  // namespace hsim

#endif  // HSIM_ENGINE_H_
