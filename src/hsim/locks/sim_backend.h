// HECTOR memory backend: the algorithm layer (src/hlock/algo/backend.h) on
// the simulated machine.  Each Word is a Machine::AllocWord location with a
// NUMA home module, every operation is a costed co_await through the
// Processor API (buses, ring, module occupancy), and the task type is the
// simulator's lazy hsim::Task -- so one algorithm body, written once in
// src/hlock/algo/, reproduces the paper's fig4 instruction counts and fig5
// contention curves exactly as the hand-written sim locks did.
//
// Memory orders are accepted and ignored: HECTOR is sequentially consistent
// with an explicit write buffer, which the cores reach through PostStore.

#ifndef HSIM_LOCKS_SIM_BACKEND_H_
#define HSIM_LOCKS_SIM_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/hlock/algo/backend.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {

class SimBackend {
 public:
  explicit SimBackend(Machine* machine) : machine_(machine) {}

  using Ctx = Processor;

  struct Word {
    SimWord* w = nullptr;
  };

  template <typename T>
  using TaskT = Task<T>;

  struct SpinWait {};

  struct Deadline {
    Tick deadline = 0;
    bool infinite = true;
  };

  // Pause between local spin loads, leaving most of the local memory
  // module's bandwidth to remote requesters of co-located kernel data (the
  // same constant the hand-written sim locks used).
  static constexpr Tick kLocalSpinPause = 16;

  // --- word lifecycle -------------------------------------------------------
  void InitWord(Word& w, std::uint32_t home_module, std::uint64_t init) {
    w.w = &machine_->AllocWord(home_module, init);
  }
  // Wraps an existing simulated word (kernel descriptors own their reserve
  // words; the reserve algorithm runs on them in place).
  static Word FromRaw(SimWord& raw) { return Word{&raw}; }

  // --- memory operations (costed; orders ignored) ---------------------------
  Task<std::uint64_t> Load(Processor& p, Word& w, std::memory_order) { return p.Load(*w.w); }
  Task<void> Store(Processor& p, Word& w, std::uint64_t v, std::memory_order) {
    return p.Store(*w.w, v);
  }
  void PostStore(Processor& p, Word& w, std::uint64_t v) { p.PostStore(*w.w, v); }
  Task<std::uint64_t> FetchStore(Processor& p, Word& w, std::uint64_t v, std::memory_order) {
    return p.FetchStore(*w.w, v);
  }
  Task<bool> CompareSwap(Processor& p, Word& w, std::uint64_t expected, std::uint64_t desired,
                         std::memory_order, std::memory_order) {
    return p.CompareSwap(*w.w, expected, desired);
  }

  // --- costing / pacing -----------------------------------------------------
  // Plain delays: each returns the engine's WaitAwaiter, not a Task.
  Engine::WaitAwaiter Exec(Processor& p, std::uint32_t reg, std::uint32_t branches) {
    return p.Exec(reg, branches);
  }
  SpinWait MakeSpinWait() { return SpinWait{}; }
  Engine::WaitAwaiter SpinPause(Processor& p, SpinWait&) {
    return p.BackoffDelay(kLocalSpinPause);
  }
  Engine::WaitAwaiter BackoffUnits(Processor& p, std::uint64_t units, bool /*at_cap*/) {
    return p.BackoffDelay(units);
  }

  // --- identity / topology (host-side, free) --------------------------------
  std::uint32_t CtxId(Processor& p) const { return p.id(); }
  std::uint32_t NumCtxs() const { return machine_->config().num_processors(); }
  std::uint32_t ClusterOfCtx(std::uint32_t id) const { return machine_->station_of(id); }
  std::uint32_t NumClusters() const { return machine_->config().stations; }
  // A simulated processor set is fixed, so every station is in use.
  std::uint32_t ClustersInUse() const { return NumClusters(); }
  // One processor per processor-memory module: a caller's local module is its
  // own id, which is where its queue nodes belong.
  std::uint32_t HomeOf(std::uint32_t ctx_id) const { return ctx_id; }

  std::uint64_t Now(Processor& p) const { return p.now(); }
  std::uint64_t RandomBelow(Processor& p, std::uint64_t bound) const {
    return p.rng().NextBelow(bound);
  }

  Deadline MakeDeadline(Processor& p, std::uint64_t budget) const {
    if (budget == hlock::algo::kInfiniteBudget) {
      return Deadline{0, true};
    }
    return Deadline{p.now() + static_cast<Tick>(budget), false};
  }
  bool Expired(Processor& p, Deadline& d) const {
    return !d.infinite && p.now() >= d.deadline;
  }

  static void Check(bool cond, const char* msg) {
    if (!cond) {
      std::fprintf(stderr, "hsim lock invariant violated: %s\n", msg);
      std::abort();
    }
  }

  // The simulated host is single-threaded; pool bookkeeping needs no guard.
  template <class F>
  void WithPool(F&& f) {
    f();
  }

  // --- trace hooks ----------------------------------------------------------
  struct Span {
    hmetrics::TraceSession* tr = nullptr;
    hmetrics::TraceSession::SpanId id = 0;
  };
  Span AcquireSpan(Processor& p, const std::string& lock_name) {
    Span span;
    if (machine_->trace_enabled(hmetrics::kTraceLocks)) {
      span.tr = machine_->trace();
      span.id = span.tr->BeginSpan(hmetrics::kTraceLocks, "lock/acquire", p.id(), p.now());
      span.tr->AddArg(span.id, "lock", lock_name);
    }
    return span;
  }
  void EndSpan(Processor& p, Span& span) {
    if (span.tr != nullptr) {
      span.tr->EndSpan(span.id, p.now());
    }
  }
  void ReleaseInstant(Processor& p, const std::string& lock_name) {
    if (machine_->trace_enabled(hmetrics::kTraceLocks)) {
      hmetrics::TraceSession* tr = machine_->trace();
      const hmetrics::TraceSession::SpanId id =
          tr->Instant(hmetrics::kTraceLocks, "lock/release", p.id(), p.now());
      tr->AddArg(id, "lock", lock_name);
    }
  }

  Machine* machine() const { return machine_; }

 private:
  Machine* machine_;
};

}  // namespace hsim

#endif  // HSIM_LOCKS_SIM_BACKEND_H_
