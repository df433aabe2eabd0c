#include "src/hsim/engine.h"

#include <exception>
#include <utility>

#include "src/hlock/algo/frame_cache.h"

namespace hsim {
namespace {

// Self-destroying wrapper frame for top-level tasks.
struct DetachedTask {
  struct promise_type : hlock::algo::CachedFramePromise {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

DetachedTask RunDetached(Engine* engine, Task<void> task, std::uint64_t* live_counter) {
  // The moved-in task lives in this frame and is destroyed with it.
  co_await task;
  --*live_counter;
  (void)engine;
}

}  // namespace

void Engine::ScheduleAt(Tick at, std::coroutine_handle<> handle) {
  if (at < now_) {
    at = now_;
  }
  queue_.push(Event{at, next_seq_++, handle});
}

void Engine::Spawn(Task<void> task) {
  ++live_tasks_;
  // The detached frame starts eagerly: it runs the task inline until the task
  // first suspends on an engine awaitable.  This is equivalent to starting at
  // the current tick.
  RunDetached(this, std::move(task), &live_tasks_);
}

Tick Engine::RunUntilIdle() {
  while (!queue_.empty()) {
    Event event = queue_.top();
    queue_.pop();
    now_ = event.at;
    ++events_processed_;
    event.handle.resume();
  }
  return now_;
}

bool Engine::RunUntil(Tick until) {
  while (!queue_.empty() && queue_.top().at <= until) {
    Event event = queue_.top();
    queue_.pop();
    now_ = event.at;
    ++events_processed_;
    event.handle.resume();
  }
  if (queue_.empty()) {
    return true;
  }
  now_ = until;
  return false;
}

}  // namespace hsim
