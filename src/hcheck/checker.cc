#include "src/hcheck/checker.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "src/hcheck/atomic.h"  // detail::RequireRuntime

namespace hcheck {

namespace {

// DFS over the decision tree.  Each execution replays the recorded prefix,
// then extends it with first-choice (0) decisions; Advance() backtracks to
// the deepest node with an untried sibling.
struct DfsStrategy {
  struct Node {
    std::size_t n;       // arity observed at this decision
    std::size_t chosen;  // branch taken
  };
  std::vector<Node> path;
  std::size_t depth = 0;
  bool nondeterministic = false;

  std::size_t Choose(std::size_t n) {
    if (depth < path.size()) {
      Node& node = path[depth++];
      if (node.n != n) {
        // The program made different choices than last time with the same
        // decisions replayed — it consulted something outside the model
        // (time, host randomness, real thread ids...).  Clamp so the
        // execution still terminates, and report after the run.
        nondeterministic = true;
        node.n = n;
        node.chosen = std::min(node.chosen, n - 1);
      }
      return node.chosen;
    }
    path.push_back({n, 0});
    ++depth;
    return 0;
  }

  void BeginExecution() { depth = 0; }

  // Moves to the next unexplored schedule; false when the space is exhausted.
  bool Advance() {
    while (!path.empty() && path.back().chosen + 1 >= path.back().n) {
      path.pop_back();
    }
    if (path.empty()) {
      return false;
    }
    ++path.back().chosen;
    return true;
  }

  std::string PathString() const {
    std::ostringstream os;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i > 0) os << ",";
      os << path[i].chosen;
    }
    return os.str();
  }
};

struct XorShift64 {
  std::uint64_t s;
  // Consecutive integer seeds (the normal case: opts.seed + i) are run
  // through a splitmix64 finalizer first — raw xorshift states that differ
  // in one bit produce highly correlated streams, which makes thousands of
  // "distinct" schedules explore nearly the same interleaving.
  explicit XorShift64(std::uint64_t seed) : s(Mix(seed)) {}
  static std::uint64_t Mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strtoull(v, nullptr, 10);
}

Options ApplyEnv(Options opts) {
  if (EnvU64("HCHECK_EXHAUSTIVE", 0) != 0) {
    opts.preemption_bound = std::max(opts.preemption_bound, 3);
    opts.max_schedules = std::max<std::uint64_t>(opts.max_schedules, 500000);
    if (opts.random_schedules > 0) {
      opts.random_schedules = std::max<std::uint64_t>(opts.random_schedules, 200000);
    }
  }
  opts.preemption_bound = static_cast<int>(
      EnvU64("HCHECK_PREEMPTIONS", static_cast<std::uint64_t>(opts.preemption_bound)));
  const std::uint64_t sched = EnvU64("HCHECK_SCHEDULES", 0);
  if (sched != 0) {
    opts.max_schedules = sched;
    if (opts.random_schedules > 0) {
      opts.random_schedules = sched;
    }
  }
  opts.seed = EnvU64("HCHECK_SEED", opts.seed);
  return opts;
}

detail::Runtime::Config RuntimeConfig(const Options& opts) {
  detail::Runtime::Config cfg;
  cfg.preemption_bound = opts.preemption_bound;
  cfg.max_ops = opts.max_ops_per_exec;
  cfg.stale_read_budget = opts.stale_read_budget;
  return cfg;
}

void FillFailure(Result& res, const detail::Runtime& rt) {
  res.failed = true;
  res.kind = rt.fail_kind();
  res.message = rt.fail_message();
  res.trace = rt.fail_trace();
}

}  // namespace

Result Check(const Options& user_opts, const std::function<void()>& body) {
  const Options opts = ApplyEnv(user_opts);
  Result res;

  if (opts.random_schedules > 0) {
    for (std::uint64_t i = 0; i < opts.random_schedules; ++i) {
      const std::uint64_t seed = opts.seed + i;
      XorShift64 rng(seed);
      // Scheduling decisions are biased toward choice 0 (keep running): most
      // concurrency bugs need one ill-timed preemption followed by a long
      // uninterrupted run, which a uniform chooser almost never produces.
      // Weak-memory load decisions are uniform — a stale read is the whole
      // point of exploring them, so it must not be starved by the same bias.
      detail::Runtime rt(
          RuntimeConfig(opts),
          [&rng](detail::Runtime::ChoiceKind kind, std::size_t n) -> std::size_t {
            const std::uint64_t r = rng.Next();
            if (kind == detail::Runtime::ChoiceKind::kLoad) {
              return static_cast<std::size_t>(r % n);
            }
            if ((r & 7) != 0) {
              return 0;
            }
            return 1 + static_cast<std::size_t>((r >> 3) % (n - 1));
          });
      rt.Run(body);
      ++res.schedules_run;
      if (rt.failed()) {
        FillFailure(res, rt);
        res.seed = seed;
        std::ostringstream os;
        os << res.message << "\n[hcheck] kind=" << res.kind << " schedule="
           << res.schedules_run << " seed=" << seed
           << " (replay: HCHECK_SEED=" << seed << " HCHECK_SCHEDULES=1)";
        res.message = os.str();
        return res;
      }
    }
    return res;
  }

  DfsStrategy dfs;
  while (res.schedules_run < opts.max_schedules) {
    dfs.BeginExecution();
    detail::Runtime rt(RuntimeConfig(opts),
                       [&dfs](detail::Runtime::ChoiceKind, std::size_t n) {
                         return dfs.Choose(n);
                       });
    rt.Run(body);
    ++res.schedules_run;
    if (rt.failed()) {
      FillFailure(res, rt);
      res.choice_path = dfs.PathString();
      std::ostringstream os;
      os << res.message << "\n[hcheck] kind=" << res.kind << " schedule="
         << res.schedules_run << " preemption_bound=" << opts.preemption_bound
         << " path=[" << res.choice_path << "]";
      res.message = os.str();
      return res;
    }
    if (dfs.nondeterministic) {
      res.failed = true;
      res.kind = "nondeterminism";
      res.message =
          "checked body is nondeterministic: replaying the same decisions "
          "produced different choice points (it must not consult time, host "
          "randomness, or real thread identity)";
      res.choice_path = dfs.PathString();
      return res;
    }
    if (!dfs.Advance()) {
      res.exhausted = true;
      return res;
    }
  }
  return res;
}

// --- in-body primitives --------------------------------------------------------

Thread Spawn(std::function<void()> body) {
  auto& rt = detail::RequireRuntime("Spawn called");
  Thread t;
  t.id_ = rt.SpawnThread(std::move(body));
  t.valid_ = true;
  return t;
}

void Thread::Join() {
  if (!valid_) {
    return;
  }
  auto* rt = detail::Runtime::Current();
  if (rt == nullptr || rt->aborting()) {
    return;
  }
  rt->JoinThread(id_);
  valid_ = false;
}

void Yield() {
  auto* rt = detail::Runtime::Current();
  if (rt == nullptr) {
    return;
  }
  rt->YieldPoint();
}

void Interleave() {
  auto* rt = detail::Runtime::Current();
  if (rt == nullptr) {
    return;
  }
  rt->SchedulePoint("interleave");
}

std::uint32_t RegisterThreadId() {
  auto* rt = detail::Runtime::Current();
  if (rt == nullptr) {
    return 0;
  }
  const std::uint32_t id = rt->current_thread();
  if (rt->FirstIdUse()) {
    // A CAS-max: ids are dense, so the first guess is that every lower id
    // has registered already.
    Atomic<std::uint32_t>& high_water = rt->IdHighWater();
    std::uint32_t seen = id;
    while (seen <= id && !rt->aborting() &&
           !high_water.compare_exchange_strong(seen, id + 1, std::memory_order_seq_cst)) {
    }
  }
  return id;
}

std::uint32_t ThreadIdHighWater() {
  auto& rt = detail::RequireRuntime("ThreadIdHighWater called");
  return rt.IdHighWater().load(std::memory_order_seq_cst);
}

void FailCheck(const std::string& msg) {
  auto& rt = detail::RequireRuntime("FailCheck called");
  rt.FailNow("assert", msg);
}

}  // namespace hcheck
