#include "src/hcheck/runtime.h"

#include <cstdio>
#include <sstream>

#include "src/hcheck/atomic.h"

namespace hcheck {
namespace detail {

namespace {

thread_local Runtime* tls_runtime = nullptr;
thread_local std::uint32_t tls_tid = 0;

// Reusable OS threads.  A checker run executes thousands of schedules, each
// with its own Runtime and virtual threads; creating and joining real threads
// per execution would dominate the runtime, so workers are parked between
// executions and handed the next virtual thread's main function.  The pool is
// process-global and intentionally leaked (workers are detached and park
// forever at exit).
class WorkerPool {
 public:
  static WorkerPool& Get() {
    static WorkerPool* pool = new WorkerPool;
    return *pool;
  }

  void Run(std::function<void()> fn) {
    Worker* w = nullptr;
    {
      std::lock_guard<std::mutex> lk(m_);
      if (!idle_.empty()) {
        w = idle_.back();
        idle_.pop_back();
      }
    }
    if (w == nullptr) {
      w = new Worker;
      std::thread([this, w] { Loop(w); }).detach();
    }
    {
      std::lock_guard<std::mutex> lk(w->m);
      w->fn = std::move(fn);
      w->has_fn = true;
    }
    w->cv.notify_one();
  }

 private:
  struct Worker {
    std::mutex m;
    std::condition_variable cv;
    std::function<void()> fn;
    bool has_fn = false;
  };

  void Loop(Worker* w) {
    while (true) {
      std::function<void()> fn;
      {
        std::unique_lock<std::mutex> lk(w->m);
        w->cv.wait(lk, [&] { return w->has_fn; });
        fn = std::move(w->fn);
        w->has_fn = false;
      }
      fn();
      std::lock_guard<std::mutex> lk(m_);
      idle_.push_back(w);
    }
  }

  std::mutex m_;
  std::vector<Worker*> idle_;
};

const char* MoName(int mo) {
  switch (mo) {
    case static_cast<int>(std::memory_order_relaxed): return "rlx";
    case static_cast<int>(std::memory_order_consume): return "csm";
    case static_cast<int>(std::memory_order_acquire): return "acq";
    case static_cast<int>(std::memory_order_release): return "rel";
    case static_cast<int>(std::memory_order_acq_rel): return "ar";
    case static_cast<int>(std::memory_order_seq_cst): return "sc";
    default: return "?";
  }
}

bool IsAcquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_consume ||
         mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}

bool IsRelease(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

}  // namespace

Runtime::Runtime(const Config& cfg, Chooser choose)
    : cfg_(cfg), choose_(std::move(choose)), preemptions_left_(cfg.preemption_bound) {
  trace_.reserve(kTraceCap);
  // SpawnThread appends while earlier workers read threads_[tid] in
  // ThreadMain without a lock: the vector must never reallocate.
  // SpawnThread refuses to go past kMaxModelThreads.
  threads_.reserve(kMaxModelThreads);
}

Runtime::~Runtime() = default;

Runtime* Runtime::Current() { return tls_runtime; }

VThread& Runtime::Self() { return *threads_[tls_tid]; }

void Runtime::Run(const std::function<void()>& body) {
  {
    std::lock_guard<std::mutex> lk(done_m_);
    created_count_ = 1;
  }
  threads_.push_back(std::make_unique<VThread>());
  VThread& t0 = *threads_[0];
  t0.id = 0;
  t0.body = body;
  WorkerPool::Get().Run([this] { ThreadMain(0); });
  ResumeInitial(t0);
  {
    std::unique_lock<std::mutex> lk(done_m_);
    done_cv_.wait(lk, [&] { return done_count_ == created_count_; });
  }
  // Every virtual thread has passed its final done-handshake (which holds
  // done_m_ while notifying), so no worker touches this Runtime anymore.
}

void Runtime::ResumeInitial(VThread& t0) {
  {
    std::lock_guard<std::mutex> lk(t0.m);
    t0.go = true;
  }
  t0.cv.notify_one();
}

void Runtime::ThreadMain(std::uint32_t tid) {
  tls_runtime = this;
  tls_tid = tid;
  VThread& self = *threads_[tid];
  try {
    WaitForGo(self);
    self.body();
  } catch (AbortExecution&) {
    // Unwound by a failure elsewhere (or our own FailNow); nothing to do.
  } catch (const std::exception& e) {
    try {
      FailNow("exception", std::string("uncaught exception in checked code: ") + e.what());
    } catch (AbortExecution&) {
    }
  } catch (...) {
    try {
      FailNow("exception", "uncaught non-std exception in checked code");
    } catch (AbortExecution&) {
    }
  }
  OnThreadDone(self);
  // This OS thread returns to the worker pool; scrub the execution TLS.
  tls_runtime = nullptr;
  tls_tid = 0;
}

void Runtime::WaitForGo(VThread& self) {
  std::unique_lock<std::mutex> lk(self.m);
  self.cv.wait(lk, [&] { return self.go || aborting(); });
  self.go = false;
  if (aborting()) {
    lk.unlock();
    throw AbortExecution{};
  }
}

void Runtime::SwitchFromTo(VThread& self, VThread& next) {
  next.yielded = false;
  current_ = next.id;
  {
    std::lock_guard<std::mutex> lk(next.m);
    next.go = true;
  }
  next.cv.notify_one();
  if (self.state == ThreadState::kDone) {
    return;  // a finished thread hands off and exits; nothing resumes it
  }
  WaitForGo(self);
}

std::vector<VThread*> Runtime::RunnableOthers(std::uint32_t self_id) {
  std::vector<VThread*> out;
  for (auto& t : threads_) {
    if (t->id != self_id && t->state == ThreadState::kRunnable) {
      out.push_back(t.get());
    }
  }
  return out;
}

bool Runtime::AllDone() const {
  for (const auto& t : threads_) {
    if (t->state != ThreadState::kDone) {
      return false;
    }
  }
  return true;
}

std::size_t Runtime::Choose(std::size_t n, ChoiceKind kind) {
  if (n <= 1) {
    return 0;
  }
  std::size_t k = choose_(kind, n);
  return k < n ? k : n - 1;
}

void Runtime::CheckOpBudget() {
  if (++ops_ > cfg_.max_ops) {
    FailNow("op-budget",
            "operation budget exceeded (" + std::to_string(cfg_.max_ops) +
                " shim ops) — livelock, or raise Options::max_ops_per_exec");
  }
}

void Runtime::SchedulePoint(const char* what) {
  if (aborting()) {
    throw AbortExecution{};
  }
  (void)what;
  CheckOpBudget();
  VThread& self = Self();
  std::vector<VThread*> others = RunnableOthers(self.id);
  if (others.empty() || preemptions_left_ <= 0) {
    return;
  }
  std::size_t k = Choose(1 + others.size());
  if (k == 0) {
    return;  // keep running (the common, depth-first-first branch)
  }
  --preemptions_left_;
  Trace("preempt");
  SwitchFromTo(self, *others[k - 1]);
}

void Runtime::YieldPoint() {
  if (aborting()) {
    throw AbortExecution{};
  }
  CheckOpBudget();
  VThread& self = Self();
  self.yielded = true;
  std::vector<VThread*> others = RunnableOthers(self.id);
  if (others.empty()) {
    self.yielded = false;
    return;  // nothing else can run; keep spinning
  }
  // Prefer threads that have not themselves yielded: a spinner must let the
  // holder make progress, or DFS could ping-pong two spinners forever.
  std::vector<VThread*> fresh;
  for (VThread* t : others) {
    if (!t->yielded) {
      fresh.push_back(t);
    }
  }
  std::vector<VThread*>& cands = fresh.empty() ? others : fresh;
  std::size_t k = Choose(cands.size());
  SwitchFromTo(self, *cands[k]);  // yields are free: no preemption charge
}

void Runtime::BlockSelf(const void* obj, const char* what) {
  if (aborting()) {
    throw AbortExecution{};
  }
  VThread& self = Self();
  self.state = ThreadState::kBlocked;
  self.block_obj = obj;
  self.block_what = what;
  Trace("block");
  std::vector<VThread*> cands = RunnableOthers(self.id);
  if (cands.empty()) {
    DeadlockFail();
  }
  std::size_t k = Choose(cands.size());
  SwitchFromTo(self, *cands[k]);
  // Resumed: MakeRunnable set us kRunnable and a scheduler decision picked us.
  self.block_obj = nullptr;
  self.block_what = nullptr;
}

void Runtime::MakeRunnable(std::uint32_t tid) {
  VThread& t = *threads_[tid];
  if (t.state == ThreadState::kBlocked) {
    t.state = ThreadState::kRunnable;
  }
}

[[noreturn]] void Runtime::DeadlockFail() {
  bool any_cv = false;
  std::ostringstream os;
  os << "no runnable thread:";
  for (const auto& t : threads_) {
    if (t->state == ThreadState::kBlocked) {
      os << " T" << t->id << "=" << (t->block_what ? t->block_what : "?");
      if (t->block_what != nullptr && std::string(t->block_what).find("condvar") != std::string::npos) {
        any_cv = true;
      }
    }
  }
  FailNow(any_cv ? "lost-signal" : "deadlock",
          std::string(any_cv ? "lost signal / deadlock — a thread waits on a condvar no one "
                               "will notify; " : "deadlock; ") + os.str());
  // FailNow throws for non-done threads; BlockSelf callers are never done.
  throw AbortExecution{};
}

void Runtime::FailNow(const std::string& kind, const std::string& msg) {
  if (!failed_) {
    failed_ = true;
    fail_kind_ = kind;
    fail_message_ = msg;
    fail_trace_ = RenderTrace();
  }
  aborting_.store(true, std::memory_order_release);
  VThread& self = Self();
  for (auto& t : threads_) {
    if (t.get() == &self) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(t->m);
      t->go = true;
    }
    t->cv.notify_all();
  }
  if (self.state != ThreadState::kDone) {
    throw AbortExecution{};
  }
}

void Runtime::OnThreadDone(VThread& self) {
  self.state = ThreadState::kDone;
  if (!aborting()) {
    // Wake joiners.
    for (auto& t : threads_) {
      if (t->state == ThreadState::kBlocked && t->block_obj == &self) {
        t->state = ThreadState::kRunnable;
      }
    }
    std::vector<VThread*> cands = RunnableOthers(self.id);
    if (!cands.empty()) {
      std::size_t k = Choose(cands.size());
      SwitchFromTo(self, *cands[k]);
    } else if (!AllDone()) {
      try {
        DeadlockFail();
      } catch (AbortExecution&) {
        // Already done; fall through to signal completion.
      }
    }
  }
  {
    // Last touch of the Runtime by this virtual thread.  Notify while holding
    // done_m_: the host cannot observe the final count (and destroy the
    // Runtime) until this thread has released the mutex.
    std::lock_guard<std::mutex> lk(done_m_);
    ++done_count_;
    done_cv_.notify_all();
  }
}

std::uint32_t Runtime::SpawnThread(std::function<void()> body) {
  SchedulePoint("spawn");
  if (threads_.size() >= kMaxModelThreads) {
    FailNow("too-many-threads",
            "more than " + std::to_string(kMaxModelThreads) + " virtual threads spawned");
  }
  VThread& self = Self();
  const std::uint32_t id = static_cast<std::uint32_t>(threads_.size());
  {
    std::lock_guard<std::mutex> lk(done_m_);
    ++created_count_;
  }
  threads_.push_back(std::make_unique<VThread>());
  VThread& child = *threads_[id];
  child.id = id;
  child.body = std::move(body);
  child.clock.Join(self.clock);  // fork edge
  Trace("spawn");
  WorkerPool::Get().Run([this, id] { ThreadMain(id); });
  return id;
}

void Runtime::JoinThread(std::uint32_t tid) {
  SchedulePoint("join");
  VThread& target = *threads_[tid];
  while (target.state != ThreadState::kDone) {
    BlockSelf(&target, "join");
  }
  Self().clock.Join(target.clock);  // join edge
}

// --- memory model --------------------------------------------------------------

detail::Location* Runtime::NewLocation() {
  auto loc = std::make_unique<Location>();
  loc->id = static_cast<std::uint32_t>(locations_.size());
  for (std::uint32_t i = 0; i < kMaxModelThreads; ++i) {
    loc->stale_left[i] = cfg_.stale_read_budget;
  }
  // The initial value is a store by the creating thread; its message carries
  // the creator's clock so initialization is visible wherever the object is.
  VThread& self = Self();
  StoreMeta init;
  init.tid = self.id;
  init.ts = self.clock.c[self.id];
  init.msg = self.clock;
  loc->stores.push_back(init);
  locations_.push_back(std::move(loc));
  return locations_.back().get();
}

detail::MutexState* Runtime::NewMutex() {
  auto m = std::make_unique<MutexState>();
  m->id = static_cast<std::uint32_t>(mutexes_.size());
  m->clk = Self().clock;  // construction happens-before first lock
  mutexes_.push_back(std::move(m));
  return mutexes_.back().get();
}

Atomic<std::uint32_t>& Runtime::IdHighWater() {
  if (id_high_water_ == nullptr) {
    id_high_water_ = std::make_unique<Atomic<std::uint32_t>>(0);
  }
  return *id_high_water_;
}

bool Runtime::FirstIdUse() {
  VThread& t = Self();
  const bool first = !t.id_registered;
  t.id_registered = true;
  return first;
}

detail::CondVarState* Runtime::NewCondVar() {
  auto cv = std::make_unique<CondVarState>();
  cv->id = static_cast<std::uint32_t>(condvars_.size());
  condvars_.push_back(std::move(cv));
  return condvars_.back().get();
}

void Runtime::ReadAt(Location& loc, std::size_t idx, std::memory_order mo) {
  VThread& t = Self();
  const StoreMeta& sm = loc.stores[idx];
  if (idx > loc.floor[t.id]) {
    loc.floor[t.id] = static_cast<std::uint32_t>(idx);
  }
  t.acq_pending.Join(sm.msg);
  if (IsAcquire(mo)) {
    t.clock.Join(sm.msg);
  }
  if (mo == std::memory_order_seq_cst) {
    sc_clock_.Join(t.clock);
  }
}

std::size_t Runtime::PickLoadIndex(Location& loc, std::memory_order mo) {
  VThread& t = Self();
  if (mo == std::memory_order_seq_cst) {
    // seq_cst loads are serialized against all earlier seq_cst ops.
    t.clock.Join(sc_clock_);
  }
  const std::size_t latest = loc.stores.size() - 1;
  // Coherence floor: the newest store whose *event* this thread already knows
  // about.  Reading anything older would violate read-read coherence.
  std::size_t f = loc.floor[t.id];
  for (std::size_t j = latest; j > f; --j) {
    const StoreMeta& sm = loc.stores[j];
    if (t.clock.Covers(sm.tid, sm.ts)) {
      f = j;
      break;
    }
  }
  std::size_t pick = latest;
  if (f < latest && loc.stale_left[t.id] > 0) {
    // Branch point: this load may legally return a stale value.  Choice 0 is
    // the freshest store so the common path is explored first.
    const std::size_t k = Choose(latest - f + 1, ChoiceKind::kLoad);
    pick = latest - k;
  }
  if (pick < latest) {
    --loc.stale_left[t.id];
  } else {
    loc.stale_left[t.id] = cfg_.stale_read_budget;
  }
  ReadAt(loc, pick, mo);
  return pick;
}

std::size_t Runtime::RmwReadLatest(Location& loc, std::memory_order mo) {
  VThread& t = Self();
  if (mo == std::memory_order_seq_cst) {
    t.clock.Join(sc_clock_);
  }
  const std::size_t latest = loc.stores.size() - 1;
  ReadAt(loc, latest, mo);
  return latest;
}

void Runtime::CommitStore(Location& loc, std::memory_order mo, std::size_t rmw_read_idx) {
  VThread& t = Self();
  if (mo == std::memory_order_seq_cst) {
    t.clock.Join(sc_clock_);
  }
  ++t.clock.c[t.id];
  StoreMeta sm;
  sm.tid = t.id;
  sm.ts = t.clock.c[t.id];
  sm.msg = IsRelease(mo) ? t.clock : t.rel_fence;
  if (rmw_read_idx != static_cast<std::size_t>(-1)) {
    // C++20 release sequence: an RMW passes along the message of the store it
    // replaced, so acquire loads of the RMW still synchronize with the head.
    sm.msg.Join(loc.stores[rmw_read_idx].msg);
  }
  loc.stores.push_back(sm);
  loc.floor[t.id] = static_cast<std::uint32_t>(loc.stores.size() - 1);
  if (mo == std::memory_order_seq_cst) {
    sc_clock_.Join(t.clock);
  }
}

void Runtime::Fence(std::memory_order mo) {
  VThread& t = Self();
  if (IsAcquire(mo)) {
    t.clock.Join(t.acq_pending);
  }
  if (mo == std::memory_order_seq_cst) {
    t.clock.Join(sc_clock_);
    sc_clock_.Join(t.clock);
  }
  if (IsRelease(mo)) {
    t.rel_fence = t.clock;
  }
  Trace("fence", ' ', 0, false, 0, static_cast<int>(mo));
}

// --- mutex / condvar -----------------------------------------------------------

void Runtime::MutexLock(MutexState& m) {
  VThread& self = Self();
  while (m.owner != -1) {
    BlockSelf(&m, "mutex lock");
  }
  m.owner = static_cast<int>(self.id);
  self.clock.Join(m.clk);
  Trace("mtx.lock", 'm', m.id);
}

bool Runtime::MutexTryLock(MutexState& m) {
  VThread& self = Self();
  if (m.owner != -1) {
    Trace("mtx.trylock!", 'm', m.id);
    return false;
  }
  m.owner = static_cast<int>(self.id);
  self.clock.Join(m.clk);
  Trace("mtx.trylock", 'm', m.id);
  return true;
}

void Runtime::MutexUnlock(MutexState& m, bool internal) {
  VThread& self = Self();
  if (m.owner != static_cast<int>(self.id)) {
    FailNow("mutex-misuse", "unlock of a mutex not held by this thread");
  }
  ++self.clock.c[self.id];
  m.clk.Join(self.clock);
  m.owner = -1;
  if (!internal) {
    Trace("mtx.unlock", 'm', m.id);
  }
  for (auto& t : threads_) {
    if (t->state == ThreadState::kBlocked && t->block_obj == &m) {
      t->state = ThreadState::kRunnable;  // wake-all; they re-compete
    }
  }
}

void Runtime::CvWait(CondVarState& cv, MutexState& m) {
  VThread& self = Self();
  Trace("cv.wait", 'c', cv.id);
  // Atomically: release the mutex and enter the wait set (no schedule point
  // in between, matching std::condition_variable).
  MutexUnlock(m, /*internal=*/true);
  cv.waiters.push_back(self.id);
  BlockSelf(&cv, "condvar wait");
  // A notifier removed us from the wait set and joined its clock into ours.
  // The caller re-acquires the mutex (with its own schedule points).
}

void Runtime::CvNotify(CondVarState& cv, bool all) {
  VThread& self = Self();
  Trace(all ? "cv.notify_all" : "cv.notify_one", 'c', cv.id);
  ++self.clock.c[self.id];
  while (!cv.waiters.empty()) {
    const std::uint32_t tid = cv.waiters.front();
    cv.waiters.erase(cv.waiters.begin());
    VThread& target = *threads_[tid];
    target.clock.Join(self.clock);  // notify happens-before wakeup
    MakeRunnable(tid);
    if (!all) {
      break;
    }
  }
}

// --- tracing -------------------------------------------------------------------

void Runtime::Trace(const char* op, char obj_kind, std::uint32_t obj_id, bool has_value,
                    std::uint64_t value, int mo) {
  TraceEvent ev;
  ev.tid = static_cast<std::uint8_t>(current_);
  ev.op = op;
  ev.obj_kind = obj_kind;
  ev.obj_id = obj_id;
  ev.has_value = has_value;
  ev.value = value;
  ev.mo = static_cast<std::uint8_t>(mo);
  if (trace_.size() < kTraceCap) {
    trace_.push_back(ev);
  } else {
    trace_[trace_next_ % kTraceCap] = ev;
  }
  ++trace_next_;
}

std::string Runtime::RenderTrace() const {
  std::ostringstream os;
  os << "last events (oldest first):\n";
  const std::size_t n = trace_.size();
  const std::size_t start = trace_next_ > n ? trace_next_ - n : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& ev = trace_[(start + i) % kTraceCap];
    os << "  T" << static_cast<int>(ev.tid) << " " << ev.op;
    if (ev.obj_kind != ' ') {
      os << " " << ev.obj_kind << ev.obj_id;
    }
    if (ev.has_value) {
      os << " val=0x" << std::hex << ev.value << std::dec;
    }
    if (ev.mo != 0xff) {
      os << " [" << MoName(ev.mo) << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace detail
}  // namespace hcheck
