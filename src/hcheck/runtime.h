// hcheck execution runtime: virtual threads under a controlled scheduler.
//
// One Runtime object is one *execution*: a single deterministic interleaving
// of the checked program.  The checker (checker.h) constructs a fresh Runtime
// per schedule and drives the choice points through a strategy (DFS over the
// decision tree, or a seeded PRNG).
//
// Execution mechanics: every virtual thread is an OS thread, but exactly one
// runs at a time; control is handed off explicitly at *schedule points* (every
// shim operation).  Preemption at a schedule point is a recorded decision, so
// replaying the same decision sequence replays the execution bit-for-bit.
// Blocking (mutex, condvar, join) parks the virtual thread; if no thread is
// runnable the execution is declared deadlocked — which is exactly how a lost
// wakeup manifests.

#ifndef HCHECK_RUNTIME_H_
#define HCHECK_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/hcheck/model.h"

namespace hcheck {

template <class T>
class Atomic;

namespace detail {

// Thrown through a virtual thread to unwind it when the execution aborts
// (failure found, or teardown).  Never escapes the runtime.
struct AbortExecution {};

enum class ThreadState { kRunnable, kBlocked, kDone };

struct VThread {
  std::uint32_t id = 0;
  std::function<void()> body;

  // Handshake with the scheduler: `go` is set when this thread is selected.
  // The backing OS thread comes from a process-wide worker pool (runtime.cc).
  std::mutex m;
  std::condition_variable cv;
  bool go = false;

  // Scheduling state.  Touched only by the currently-running thread (or
  // during abort teardown, when threads only unwind).
  ThreadState state = ThreadState::kRunnable;
  const void* block_obj = nullptr;
  const char* block_what = nullptr;
  bool yielded = false;
  bool id_registered = false;  // RegisterThreadId raised the high-water

  // Memory-model state.
  VectorClock clock;        // happens-before knowledge
  VectorClock acq_pending;  // joined messages of all loads (for acquire fences)
  VectorClock rel_fence;    // clock at the last release fence
};

// Compact trace event; formatted only when a failure is reported.
struct TraceEvent {
  std::uint8_t tid = 0;
  const char* op = nullptr;      // static strings only
  std::uint32_t obj_id = 0;      // location / mutex / condvar id
  char obj_kind = ' ';           // 'a', 'm', 'c', or ' ' (none)
  std::uint64_t value = 0;       // low 8 bytes of the value, if any
  bool has_value = false;
  std::uint8_t mo = 0;           // std::memory_order as int, 0xff = none
};

class Runtime {
 public:
  struct Config {
    int preemption_bound = 2;
    std::uint64_t max_ops = 50000;
    std::uint32_t stale_read_budget = 2;
  };
  // What a choice point decides — lets the random strategy bias scheduling
  // decisions (long uninterrupted runs) differently from weak-memory load
  // decisions (stale values).  DFS ignores the kind.
  enum class ChoiceKind { kSchedule, kLoad };
  using Chooser = std::function<std::size_t(ChoiceKind, std::size_t)>;

  Runtime(const Config& cfg, Chooser choose);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs `body` as virtual thread 0 to completion (or failure).  Called on
  // the host (test) thread; returns when every virtual thread has finished.
  void Run(const std::function<void()>& body);

  bool failed() const { return failed_; }
  const std::string& fail_kind() const { return fail_kind_; }
  const std::string& fail_message() const { return fail_message_; }
  const std::string& fail_trace() const { return fail_trace_; }

  // The runtime of the execution the calling OS thread belongs to (nullptr on
  // the host thread / outside any execution).
  static Runtime* Current();

  bool aborting() const { return aborting_.load(std::memory_order_acquire); }

  // --- scheduling (called from virtual threads) ------------------------------
  std::uint32_t SpawnThread(std::function<void()> body);
  void JoinThread(std::uint32_t tid);
  void SchedulePoint(const char* what);  // possible preemption
  void YieldPoint();                     // spin-loop hint: prefer running others
  void BlockSelf(const void* obj, const char* what);
  void MakeRunnable(std::uint32_t tid);
  std::size_t Choose(std::size_t n, ChoiceKind kind = ChoiceKind::kSchedule);
  std::uint32_t current_thread() const { return current_; }
  // Records a failure and aborts the execution.  Throws AbortExecution unless
  // the calling virtual thread is already done.
  void FailNow(const std::string& kind, const std::string& msg);

  // --- memory model (called from the shims; no internal schedule points) -----
  detail::Location* NewLocation();
  detail::MutexState* NewMutex();
  detail::CondVarState* NewCondVar();

  // Applies the read-side clock effects of reading store `idx`.
  void ReadAt(detail::Location& loc, std::size_t idx, std::memory_order mo);
  // Chooses which store a load reads (branch point) and applies ReadAt.
  std::size_t PickLoadIndex(detail::Location& loc, std::memory_order mo);
  // Read half of an RMW: always the newest store.
  std::size_t RmwReadLatest(detail::Location& loc, std::memory_order mo);
  // Appends a store to the modification order.  `rmw_read_idx` is the index
  // the RMW read half consumed (for release-sequence continuation), or
  // SIZE_MAX for a plain store.
  void CommitStore(detail::Location& loc, std::memory_order mo,
                   std::size_t rmw_read_idx = static_cast<std::size_t>(-1));
  void Fence(std::memory_order mo);

  // --- mutex / condvar support ----------------------------------------------
  void MutexLock(detail::MutexState& m);
  bool MutexTryLock(detail::MutexState& m);
  void MutexUnlock(detail::MutexState& m, bool internal = false);
  void CvWait(detail::CondVarState& cv, detail::MutexState& m);
  void CvNotify(detail::CondVarState& cv, bool all);

  // --- thread-id high-water (checker.h, RegisterThreadId) -------------------
  // The execution's modeled high-water word, created on first use.
  Atomic<std::uint32_t>& IdHighWater();
  // True on the calling virtual thread's first call only.
  bool FirstIdUse();

  void Trace(const char* op, char obj_kind = ' ', std::uint32_t obj_id = 0,
             bool has_value = false, std::uint64_t value = 0, int mo = 0xff);

 private:
  void ThreadMain(std::uint32_t tid);
  void OnThreadDone(detail::VThread& self);
  void WaitForGo(detail::VThread& self);
  void SwitchFromTo(detail::VThread& self, detail::VThread& next);
  void ResumeInitial(detail::VThread& t0);
  detail::VThread& Self();
  std::vector<detail::VThread*> RunnableOthers(std::uint32_t self_id);
  bool AllDone() const;
  [[noreturn]] void DeadlockFail();
  std::string RenderTrace() const;
  void CheckOpBudget();

  Config cfg_;
  Chooser choose_;
  std::vector<std::unique_ptr<detail::VThread>> threads_;
  std::vector<std::unique_ptr<detail::Location>> locations_;
  std::vector<std::unique_ptr<detail::MutexState>> mutexes_;
  std::vector<std::unique_ptr<detail::CondVarState>> condvars_;
  std::unique_ptr<Atomic<std::uint32_t>> id_high_water_;
  VectorClock sc_clock_;
  int preemptions_left_ = 0;
  std::uint64_t ops_ = 0;
  std::uint32_t current_ = 0;

  std::atomic<bool> aborting_{false};
  bool failed_ = false;
  std::string fail_kind_;
  std::string fail_message_;
  std::string fail_trace_;

  // Execution-completion handshake with the host thread.
  std::mutex done_m_;
  std::condition_variable done_cv_;
  std::size_t created_count_ = 0;
  std::size_t done_count_ = 0;

  // Trace ring buffer (structured; formatted lazily on failure).
  std::vector<detail::TraceEvent> trace_;
  std::size_t trace_next_ = 0;
  static constexpr std::size_t kTraceCap = 256;
};

}  // namespace detail
}  // namespace hcheck

#endif  // HCHECK_RUNTIME_H_
