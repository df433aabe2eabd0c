// A lazy, continuation-passing coroutine task for the discrete-event
// simulator.
//
// Simulated code (kernel paths, lock algorithms, workload drivers) is written
// as ordinary-looking C++ coroutines that `co_await` memory accesses and
// delays.  Awaiting a Task starts it immediately on the awaiter's simulated
// processor; when the inner task completes, control transfers back to the
// awaiter via symmetric transfer, so arbitrarily deep call chains cost no
// simulated time by themselves.
//
// Top-level tasks are launched with Engine::Spawn (see engine.h), which wraps
// them in a self-destroying detached frame.  All workloads in this repository
// are written to terminate, so the engine never needs to tear down suspended
// coroutines.
//
// Frames come from the per-thread FrameCache (src/hlock/algo/frame_cache.h),
// not straight from operator new.  Timed holds and delays -- Resource::Use,
// Processor::Exec/Compute/BackoffDelay -- are not Tasks at all but the
// engine's WaitAwaiter, so the only frames a memory access builds are its own.
// A suspended WaitAwaiter sits in its awaiting frame and is itself the
// engine's queue node, so waiting allocates nothing either.

#ifndef HSIM_TASK_H_
#define HSIM_TASK_H_

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "src/hlock/algo/frame_cache.h"

namespace hsim {

template <typename T>
class Task;

namespace internal {

// Resumes the awaiting coroutine (if any) when a task finishes.
struct TaskFinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> handle) noexcept {
    std::coroutine_handle<> continuation = handle.promise().continuation;
    if (continuation) {
      return continuation;
    }
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct TaskPromiseBase : hlock::algo::CachedFramePromise {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  TaskFinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace internal

// A lazily-started coroutine returning T.  Move-only; owns its frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::TaskPromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) {
        handle_.destroy();
      }
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() const noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> continuation) noexcept {
        handle.promise().continuation = continuation;
        return handle;
      }
      T await_resume() {
        promise_type& promise = handle.promise();
        if (promise.exception) {
          std::rethrow_exception(promise.exception);
        }
        return std::move(*promise.value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  std::coroutine_handle<promise_type> handle_ = nullptr;
};

// void specialization.  An empty Task<void> (default-constructed) is already
// finished: awaiting it is ready at once and does nothing, which lets a plain
// function that returns Task<void> skip building a frame when it has no work.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::TaskPromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) {
        handle_.destroy();
      }
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() const noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> continuation) noexcept {
        handle.promise().continuation = continuation;
        return handle;
      }
      void await_resume() {
        if (handle && handle.promise().exception) {
          std::rethrow_exception(handle.promise().exception);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  std::coroutine_handle<promise_type> handle_ = nullptr;
};

}  // namespace hsim

#endif  // HSIM_TASK_H_
