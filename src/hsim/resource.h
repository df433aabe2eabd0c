// FIFO-served hardware resources (memory modules, station buses, the ring).
//
// A resource is modelled with reservation semantics: a transaction arriving at
// tick T reserves the first free interval at or after T and waits until its
// service completes.  Because the engine resumes waits in (tick, scheduling
// order) order, reservation order equals service order, which makes each
// resource an exact FIFO queue without an explicit waiter list.  Queueing delay under load is
// what produces the paper's "second order" contention effects.
//
// Use and UseOverlapped reserve at the call and return the engine's
// WaitAwaiter rather than a coroutine: a cross-ring access (seven holds)
// builds no frame per hold.

#ifndef HSIM_RESOURCE_H_
#define HSIM_RESOURCE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/hsim/engine.h"
#include "src/hsim/types.h"

namespace hsim {

class Resource {
 public:
  Resource(Engine* engine, std::string name) : engine_(engine), name_(std::move(name)) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  Resource(Resource&&) = default;

  const std::string& name() const { return name_; }

  // Reserves the resource for `hold` ticks starting at the first free instant
  // >= now.  Returns the service start tick.  The caller is responsible for
  // waiting (see Use / UseOverlapped).
  Tick Reserve(Tick hold) {
    Tick start = busy_until_ > engine_->now() ? busy_until_ : engine_->now();
    busy_until_ = start + hold;
    total_busy_ += hold;
    total_wait_ += start - engine_->now();
    ++transactions_;
    return start;
  }

  // Occupies the resource for `hold` ticks; resumes when service completes.
  // The reservation is made at the call, so the result must be awaited at
  // once: `co_await bus.Use(4)`.
  Engine::WaitAwaiter Use(Tick hold) { return engine_->WaitUntil(Reserve(hold) + hold); }

  // Occupies the resource for `hold` ticks but resumes the caller after only
  // `visible` ticks of service.  Used for atomic swap: the MC88100 proceeds as
  // soon as the fetch half completes while the memory module finishes the
  // store half in the background.
  Engine::WaitAwaiter UseOverlapped(Tick visible, Tick hold) {
    return engine_->WaitUntil(Reserve(hold) + visible);
  }

  // --- statistics -----------------------------------------------------------
  // Total ticks of service delivered.
  Tick total_busy() const { return total_busy_; }
  // Total ticks transactions spent queued behind earlier transactions.
  Tick total_wait() const { return total_wait_; }
  std::uint64_t transactions() const { return transactions_; }
  Tick busy_until() const { return busy_until_; }

  void ResetStats() {
    total_busy_ = 0;
    total_wait_ = 0;
    transactions_ = 0;
  }

 private:
  Engine* engine_;
  std::string name_;
  Tick busy_until_ = 0;
  Tick total_busy_ = 0;
  Tick total_wait_ = 0;
  std::uint64_t transactions_ = 0;
};

}  // namespace hsim

#endif  // HSIM_RESOURCE_H_
