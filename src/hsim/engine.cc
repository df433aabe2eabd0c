#include "src/hsim/engine.h"

#include <bit>
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

void Engine::Spawn(Task<void> task) {
  ++live_tasks_;
  // The detached frame starts eagerly: it runs the task inline until the task
  // first suspends on an engine awaitable.  This is equivalent to starting at
  // the current tick.
  RunDetached(this, std::move(task), &live_tasks_);
}

void Engine::PushFar(WaitAwaiter* waiter) {
  far_.push(FarWait{waiter->at, far_seq_++, waiter});
}

Tick Engine::NextWheelTick() const {
  const std::size_t slot = now_ & (kWheelTicks - 1);
  std::size_t word = slot / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (slot % 64));
  while (bits == 0) {
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  const std::size_t found = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  return now_ + ((found - slot) & (kWheelTicks - 1));
}

void Engine::AdvanceTo(Tick at) {
  now_ = at;
  while (!far_.empty() && far_.top().at - now_ < kWheelTicks) {
    Append(far_.top().waiter);
    far_.pop();
  }
}

bool Engine::RunThrough(Tick until) {
  for (;;) {
    std::size_t slot = now_ & (kWheelTicks - 1);
    if (buckets_[slot].head == nullptr || now_ > until) {
      if (wheel_size_ == 0 && far_.empty()) {
        return true;
      }
      // Every far wait is at least kWheelTicks ahead, so after every wheel wait.
      const Tick next = wheel_size_ != 0 ? NextWheelTick() : far_.top().at;
      if (next > until) {
        return false;
      }
      AdvanceTo(next);
      slot = now_ & (kWheelTicks - 1);
    }
    Bucket& bucket = buckets_[slot];
    WaitAwaiter* waiter = bucket.head;
    bucket.head = waiter->next;
    if (bucket.head == nullptr) {
      bucket.tail = nullptr;
      occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
    --wheel_size_;
    ++events_processed_;
    // The awaiter dies in its frame once the coroutine resumes.
    waiter->handle.resume();
  }
}

Tick Engine::RunUntilIdle() {
  RunThrough(~Tick{0});
  return now_;
}

bool Engine::RunUntil(Tick until) {
  if (RunThrough(until)) {
    return true;
  }
  if (until > now_) {
    AdvanceTo(until);
  }
  return false;
}

}  // namespace hsim
