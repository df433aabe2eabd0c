// hcheck public API: deterministic schedule exploration for concurrent code.
//
//   hcheck::Options opts;
//   hcheck::Result res = hcheck::Check(opts, [] {
//     auto lock = std::make_shared<SomeLock>();     // fresh state per schedule
//     hcheck::Thread t = hcheck::Spawn([lock] { lock->lock(); lock->unlock(); });
//     lock->lock();
//     lock->unlock();
//     t.Join();
//     HCHECK_ASSERT(...);                           // quiescence invariants
//   });
//   ASSERT_FALSE(res.failed) << res.message << "\n" << res.trace;
//
// The body runs once per explored schedule, as virtual thread 0.  Exploration
// is DFS over every decision (which thread runs at each preemption point,
// which visible store each load reads), preemption-bounded so the tree stays
// polynomial; with `random_schedules > 0` it instead samples seeded-random
// schedules and reports a replayable failing seed.
//
// The body must be deterministic (no time, no host randomness): a failure is
// replayed from its decision path / seed alone.

#ifndef HCHECK_CHECKER_H_
#define HCHECK_CHECKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/hcheck/runtime.h"

namespace hcheck {

struct Options {
  // DFS mode (the default): explore every schedule with at most this many
  // preemptions (CHESS-style context bounding; most concurrency bugs need 2).
  int preemption_bound = 2;
  // Stop DFS after this many schedules even if the space is not exhausted.
  std::uint64_t max_schedules = 20000;
  // Random mode: if > 0, run this many seeded-random schedules instead of
  // DFS.  A failure reports the seed; rerunning with {seed, 1} replays it.
  std::uint64_t random_schedules = 0;
  std::uint64_t seed = 1;
  // Safety rails per execution.
  std::uint64_t max_ops_per_exec = 50000;
  // How many consecutive stale (non-newest) values one thread may read from
  // one location.  Models "stores become visible in finite time" and keeps
  // spin loops terminating.
  std::uint32_t stale_read_budget = 2;

  // Environment overrides, applied by Check():
  //   HCHECK_EXHAUSTIVE=1   raise preemption_bound/max_schedules for a sweep
  //   HCHECK_SCHEDULES=N    override max_schedules (and random_schedules)
  //   HCHECK_PREEMPTIONS=N  override preemption_bound
  //   HCHECK_SEED=N         override seed
};

struct Result {
  bool failed = false;
  std::string kind;     // "lost-signal", "deadlock", "assert", ...
  std::string message;  // human-readable failure + replay info
  std::string trace;    // last events of the failing schedule
  std::uint64_t schedules_run = 0;
  bool exhausted = false;      // DFS explored the whole (bounded) space
  std::uint64_t seed = 0;      // failing seed (random mode)
  std::string choice_path;     // failing decision path (DFS mode)
};

Result Check(const Options& opts, const std::function<void()>& body);

// --- in-body primitives --------------------------------------------------------

class Thread {
 public:
  Thread() = default;
  void Join();

 private:
  friend Thread Spawn(std::function<void()> body);
  std::uint32_t id_ = 0;
  bool valid_ = false;
};

// Spawns a virtual thread. Must be called from inside a Check() body.
Thread Spawn(std::function<void()> body);

// Spin-loop hint: deprioritizes the caller so the thread it waits on can run.
void Yield();

// Plain preemption point, for widening windows in test harness code.
void Interleave();

// Dense id of the calling virtual thread (0 = the Check body), as
// hcheck::Platform::ThreadId hands it out.  The model of
// hlock::ThreadIdHighWater: the first call on each virtual thread raises the
// execution's id high-water to at least id + 1, with seq_cst CASes on a
// modeled atomic (schedule points), as a native thread publishes the
// high-water when it takes a fresh id.  Later calls are free.
std::uint32_t RegisterThreadId();

// The execution's id high-water: a modeled seq_cst load (a schedule point).
std::uint32_t ThreadIdHighWater();

// Reports a model-checker failure (records the schedule and unwinds the
// execution).  Aborts the process if called outside a Check body.
void FailCheck(const std::string& msg);

// --- invariant helpers ---------------------------------------------------------

#define HCHECK_STR_INNER(x) #x
#define HCHECK_STR(x) HCHECK_STR_INNER(x)
#define HCHECK_ASSERT(cond)                                                      \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ::hcheck::FailCheck("HCHECK_ASSERT failed: " #cond " at " __FILE__         \
                          ":" HCHECK_STR(__LINE__));                             \
    }                                                                            \
  } while (0)

// Mutual exclusion: wrap each critical section in Enter()/Exit().  The
// surrounding preemption points give a second thread every chance to enter.
class MutualExclusion {
 public:
  void Enter() {
    Interleave();
    if (++inside_ != 1) {
      FailCheck("mutual exclusion violated: two threads in the critical section");
    }
    ++entries_counted_;
    Interleave();
  }
  void Exit() {
    Interleave();
    if (inside_-- != 1) {
      FailCheck("mutual exclusion violated: Exit without matching Enter");
    }
    Interleave();
  }
  int entries() const { return entries_counted_; }

 private:
  int inside_ = 0;
  int entries_counted_ = 0;
};

// FIFO handover: Granted(id) must occur in Enqueued(id) order.
class FifoOrder {
 public:
  void Enqueued(int id) { q_.push_back(id); }
  void Granted(int id) {
    if (q_.empty() || q_.front() != id) {
      FailCheck("FIFO order violated: grant out of enqueue order");
    }
    q_.pop_front();
  }
  bool quiesced() const { return q_.empty(); }

 private:
  std::deque<int> q_;
};

}  // namespace hcheck

#endif  // HCHECK_CHECKER_H_
