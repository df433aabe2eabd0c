// Discrete-event engine.
//
// The engine owns a time-ordered queue of pending coroutine resumptions.
// Simulated code suspends on awaitables that schedule their own resumption at
// a future tick; the engine pops events in (tick, sequence) order, so runs are
// fully deterministic.  Ties at the same tick resume in scheduling order.

#ifndef HSIM_ENGINE_H_
#define HSIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <queue>
#include <vector>

#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Tick now() const { return now_; }

  // Number of top-level tasks spawned and still running.
  std::uint64_t live_tasks() const { return live_tasks_; }
  std::uint64_t events_processed() const { return events_processed_; }

  // Schedules `handle` to be resumed at absolute tick `at` (clamped to now).
  void ScheduleAt(Tick at, std::coroutine_handle<> handle);

  // Awaitable: suspend the awaiting coroutine until absolute tick `at`.  It
  // is a plain struct, not a coroutine, so timed holds built on it (resource
  // occupancy, instruction and backoff delays) allocate no frame.  It reads
  // `now` when awaited: await it at once, as every caller does.
  struct WaitAwaiter {
    Engine* engine;
    Tick at;
    bool await_ready() const noexcept { return at <= engine->now(); }
    void await_suspend(std::coroutine_handle<> handle) { engine->ScheduleAt(at, handle); }
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

  // Runs events with tick <= `until`.  Events after `until` remain queued.
  // Returns true if the queue drained.
  bool RunUntil(Tick until);

 private:
  struct Event {
    Tick at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;

    // priority_queue is a max-heap; invert so the earliest event wins.
    bool operator<(const Event& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t live_tasks_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Event> queue_;
};

}  // namespace hsim

#endif  // HSIM_ENGINE_H_
