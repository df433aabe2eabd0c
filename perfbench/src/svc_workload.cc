// Native hsvc workload: svc_read_mostly.
//
// The service runs 2 clusters x 1 worker (two pump threads) and the
// benchmark runs one client thread per cluster, so the busy threads never
// outnumber the cores.  Clients drive the service only through its public
// calls: request nodes come from a halloc::SlabAllocator, go in through
// Service::Submit and come back on the client's own completion list.
//
// Two loops measure two things:
//   closed loop   each client keeps kOutstanding requests in flight and
//                 submits a new one for every completion; completions per
//                 second is the service's capacity on this host.
//   open loop     each client sends on a seeded Poisson schedule at a fixed
//                 rate, polling (yielding, never sleeping) to each due
//                 instant, and times every request from that instant to the
//                 moment it pops the completion -- a stall delays every later
//                 request and the numbers show it.
//
// Clients yield whenever they find nothing to collect: when the host runs
// more threads than CPUs, a client that spins could keep a pump (or a lock
// holder inside it) off the CPU it shares.
//
// Every value the benchmark writes encodes its key, so each completed get
// is checked against the key it asked for.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/halloc/slab_allocator.h"
#include "src/hlock/bootstrap_locks.h"
#include "src/hlock/hybrid_table.h"
#include "src/hlock/lock_free.h"
#include "src/hlock/mcs_locks.h"
#include "src/hmetrics/registry.h"
#include "src/hsvc/service.h"

namespace perfbench {
namespace {

using hsvc::OpKind;
using hsvc::Request;
using hsvc::Service;
using Pool = halloc::SlabAllocator<Request>;

constexpr std::uint32_t kClusters = 2;         // 2 clusters x 1 worker
constexpr std::uint32_t kClients = kClusters;  // one client thread per cluster
constexpr std::uint64_t kKeysPerCluster = 4096;
constexpr std::uint64_t kKeys = kKeysPerCluster * kClusters;
constexpr std::uint32_t kOutstanding = 64;  // closed loop, per client
constexpr std::uint32_t kPreloadWindow = 256;  // set-up puts in flight
constexpr int kSetUpsPerRound = 4;  // set-ups timed between untraced rounds
constexpr unsigned kTagBits = 24;
constexpr double kWindowS = 0.25;
constexpr int kRounds = 4;  // closed/open phase pairs in an untraced run
// Validity bounds.  The open loop (its completion rate, and the latency
// diagnostics of traced runs) is trusted only while the client sends the
// median request on time: the p50 send lag must stay within kMaxSendLagP50Us
// (the p99 lag is reported; on a shared host it mostly measures vCPU stalls).
// The closed loop measures the service only while requests wait in the
// service's queues rather than in the client.
constexpr double kMaxSendLagP50Us = 10;
constexpr double kMinClosedQueueFrac = 0.5;
constexpr std::size_t kSpansPerThread = 100000;

// svc_read_mostly: 95% gets, zipfian keys (theta 0.99), 90% of ops on keys
// homed at the client's own cluster.
constexpr double kReadFraction = 0.95;
constexpr double kLocalFraction = 0.9;
constexpr double kZipfTheta = 0.99;

std::uint64_t EncodeValue(std::uint64_t key, std::uint64_t tag) {
  return key << kTagBits | (tag & ((1ull << kTagBits) - 1));
}

struct KeyOp {
  std::uint64_t key;
  bool write;
};

// The seeded op stream of one client.  The clustered table homes integer
// keys by key % clusters, so rank r homed at cluster c is key r * clusters + c.
class KeyStream {
 public:
  KeyStream(std::uint32_t cluster, std::uint64_t seed)
      : cluster_(cluster), rng_(seed), zipf_(kKeysPerCluster, kZipfTheta) {}

  KeyOp Next() {
    std::uint32_t target = cluster_;
    if (rng_.Uniform() >= kLocalFraction) {
      target = (cluster_ + 1 + static_cast<std::uint32_t>(rng_.Below(kClusters - 1))) % kClusters;
    }
    const std::uint64_t rank = zipf_.Next(&rng_);
    const bool write = rng_.Uniform() >= kReadFraction;
    return KeyOp{rank * kClusters + target, write};
  }
  Rng& rng() { return rng_; }

 private:
  std::uint32_t cluster_;
  Rng rng_;
  Zipf zipf_;
};

struct Tally {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t gets = 0;
  std::uint64_t failed = 0;      // expired or not found
  std::uint64_t bad_values = 0;  // a value that was never written for that key
  std::uint64_t rejected = 0;    // requests whose first Submit was refused
  double queue_ns = 0;           // sum of start - enqueue
  double resident_ns = 0;        // sum of done - enqueue
  std::vector<std::uint64_t> service_ns;  // traced: done - start
  std::vector<std::uint64_t> put_ns;      // traced: done - start of puts

  void Merge(const Tally& o) {
    issued += o.issued;
    completed += o.completed;
    gets += o.gets;
    failed += o.failed;
    bad_values += o.bad_values;
    rejected += o.rejected;
    queue_ns += o.queue_ns;
    resident_ns += o.resident_ns;
    service_ns.insert(service_ns.end(), o.service_ns.begin(), o.service_ns.end());
    put_ns.insert(put_ns.end(), o.put_ns.begin(), o.put_ns.end());
  }
};

struct OpenStats {
  std::vector<std::vector<std::uint64_t>> latency_ns;  // per window, from due
  std::vector<std::uint64_t> lag_ns;                   // send time - due
  std::vector<std::uint64_t> queue_wait_ns;            // traced: start - enqueue
  std::vector<std::uint64_t> reply_ns;                 // traced: popped - done
  std::uint64_t completed = 0;
  std::uint64_t start_ns = 0;     // the schedule's start
  std::uint64_t last_pop_ns = 0;  // the latest completion popped

  // Sizes every vector for `seconds` at `rate` with headroom, so the client
  // thread records without allocating (and the run's peak memory does not
  // depend on which thread's heap grew).
  void Reserve(double seconds, double rate, bool traced) {
    latency_ns.resize(static_cast<std::size_t>(std::ceil(seconds / kWindowS)));
    for (std::vector<std::uint64_t>& window : latency_ns) {
      window.reserve(static_cast<std::size_t>(rate * kWindowS * 1.5) + 64);
    }
    const auto total = static_cast<std::size_t>(rate * seconds * 1.2) + 64;
    lag_ns.reserve(total);
    if (traced) {
      queue_wait_ns.reserve(total);
      reply_ns.reserve(total);
    }
  }

  void Merge(const OpenStats& o) {
    latency_ns.resize(std::max(latency_ns.size(), o.latency_ns.size()));
    for (std::size_t w = 0; w < o.latency_ns.size(); ++w) {
      latency_ns[w].insert(latency_ns[w].end(), o.latency_ns[w].begin(), o.latency_ns[w].end());
    }
    lag_ns.insert(lag_ns.end(), o.lag_ns.begin(), o.lag_ns.end());
    queue_wait_ns.insert(queue_wait_ns.end(), o.queue_wait_ns.begin(), o.queue_wait_ns.end());
    reply_ns.insert(reply_ns.end(), o.reply_ns.begin(), o.reply_ns.end());
    completed += o.completed;
    start_ns = start_ns == 0 ? o.start_ns : std::min(start_ns, o.start_ns);
    last_pop_ns = std::max(last_pop_ns, o.last_pop_ns);
  }
};

// One client thread's view of the service.  `spans` is null in untraced
// runs; every span site is a single branch then.
class Client {
 public:
  Client(Service* svc, Pool* pool, std::uint32_t cluster, std::uint64_t seed, SpanBuffer* spans)
      : svc_(svc), pool_(pool), cluster_(cluster), keys_(cluster, seed), spans_(spans) {}

  // Keeps kOutstanding requests in flight until `stop`; `progress` carries
  // the completion count to the measuring thread.
  void RunClosed(const std::atomic<bool>& stop, std::atomic<std::uint64_t>* progress) {
    pool_->RegisterThread(cluster_);
    for (std::uint32_t i = 0; i < kOutstanding; ++i) {
      SubmitNew(spans_ != nullptr ? NowNs() : 0, nullptr);
    }
    while (!stop.load(std::memory_order_relaxed)) {
      Request* req = PopOne();
      if (req == nullptr) {
        std::this_thread::yield();
        continue;
      }
      Finish(req, 0, nullptr);
      progress->store(tally.completed, std::memory_order_relaxed);
      SubmitNew(spans_ != nullptr ? NowNs() : 0, nullptr);
    }
    DrainOwn(nullptr);
  }

  // Sends on a Poisson schedule at `rate` ops/s from `start_ns` until
  // `end_ns`, then waits for its own outstanding requests.
  void RunOpen(std::uint64_t start_ns, std::uint64_t end_ns, double rate, OpenStats* out) {
    pool_->RegisterThread(cluster_);
    out->start_ns = start_ns;
    const double mean_gap_ns = 1e9 / rate;
    double due = static_cast<double>(start_ns);
    while (true) {
      due += -std::log(1.0 - keys_.rng().Uniform()) * mean_gap_ns;
      const auto due_ns = static_cast<std::uint64_t>(due);
      if (due_ns >= end_ns) {
        break;
      }
      std::uint64_t now = NowNs();
      while (now < due_ns) {
        if (!Harvest(out)) {
          std::this_thread::yield();
        }
        now = NowNs();
      }
      out->lag_ns.push_back(now - due_ns);
      SubmitNew(due_ns, out);
    }
    DrainOwn(out);
  }

  Tally tally;

 private:
  Request* Alloc() {
    const std::uint64_t t0 = spans_ != nullptr ? NowNs() : 0;
    Request* req = pool_->Alloc();
    if (spans_ != nullptr) {
      alloc_span_ = {t0, NowNs()};
    }
    return req;
  }

  void Free(Request* req, std::uint64_t id) {
    const std::uint64_t t0 = spans_ != nullptr ? NowNs() : 0;
    pool_->Free(req);
    if (spans_ != nullptr) {
      spans_->Add(kSpanFree, id, id, t0, NowNs());
    }
  }

  // Pops one completion; a successful pop is a span, an empty poll is not.
  Request* PopOne() {
    const std::uint64_t t0 = spans_ != nullptr ? NowNs() : 0;
    hlock::LockFreeNode* node = completion_.Pop();
    if (node == nullptr) {
      return nullptr;
    }
    Request* req = Request::FromFreeLink(node);
    if (spans_ != nullptr) {
      popped_ns_ = NowNs();
      spans_->Add(kSpanPop, req->retries, req->retries, t0, popped_ns_);
    }
    return req;
  }

  Request* Fill(std::uint64_t due_ns, OpenStats* out) {
    Request* req = Alloc();
    while (req == nullptr) {
      // Pool dry: wait for one of our own requests to come back.
      if (Request* done = PopOne()) {
        Finish(done, NowNs(), out);
      }
      req = Alloc();
    }
    const KeyOp op = keys_.Next();
    ++seq_;
    req->completion = &completion_;
    req->kind = op.write ? OpKind::kPut : OpKind::kGet;
    req->key = op.key;
    req->value_in = EncodeValue(op.key, seq_);
    req->scheduled_ns = due_ns;
    req->deadline_ns = 0;
    // The service ignores `retries`; the benchmark keeps the request id
    // (client in the top bit, sequence below) there so spans recorded after
    // completion can name their request.
    req->retries = cluster_ << 31 | static_cast<std::uint32_t>(seq_ & 0x7FFFFFFFu);
    req->flight = nullptr;
    if (spans_ != nullptr) {
      spans_->Add(kSpanAlloc, req->retries, req->retries, alloc_span_.first, alloc_span_.second);
    }
    ++tally.issued;
    return req;
  }

  bool TrySubmit(Request* req) {
    const std::uint64_t t0 = spans_ != nullptr ? NowNs() : 0;
    const hsvc::AdmitResult admit = svc_->Submit(req, cluster_);
    if (spans_ != nullptr) {
      spans_->Add(kSpanSubmit, req->retries, req->retries, t0, NowNs());
    }
    return admit.admitted;
  }

  // Submits until admitted, collecting completions between attempts when
  // `out` is set (a full queue drains while the open loop keeps harvesting).
  void SubmitNew(std::uint64_t due_ns, OpenStats* out) {
    Request* req = Fill(due_ns, out);
    if (!TrySubmit(req)) {
      ++tally.rejected;
      do {
        if (out != nullptr) {
          Harvest(out);
        }
      } while (!TrySubmit(req));
    }
    ++outstanding_;
  }

  // Checks one completed request and returns its node to the pool.
  void Finish(Request* req, std::uint64_t popped_ns, OpenStats* out) {
    --outstanding_;
    ++tally.completed;
    if (req->status != hsvc::Status::kOk) {
      ++tally.failed;
    } else if (req->kind == OpKind::kGet) {
      if (req->value_out >> kTagBits != req->key) {
        ++tally.bad_values;
      }
    } else if (req->value_out != req->value_in) {
      ++tally.bad_values;
    }
    if (req->kind == OpKind::kGet) {
      ++tally.gets;
    }
    tally.queue_ns += static_cast<double>(req->start_ns - req->enqueue_ns);
    tally.resident_ns += static_cast<double>(req->done_ns - req->enqueue_ns);
    if (spans_ != nullptr) {
      tally.service_ns.push_back(req->done_ns - req->start_ns);
      if (req->kind == OpKind::kPut) {
        tally.put_ns.push_back(req->done_ns - req->start_ns);
      }
      const std::uint64_t end = popped_ns != 0 ? popped_ns : popped_ns_;
      spans_->Add(kSpanRequest, req->retries, 0, req->scheduled_ns, end);
    }
    if (out != nullptr) {
      const std::uint64_t latency = popped_ns - req->scheduled_ns;
      const std::size_t w = (req->scheduled_ns - out->start_ns) / static_cast<std::uint64_t>(kWindowS * 1e9);
      out->latency_ns[std::min(w, out->latency_ns.size() - 1)].push_back(latency);
      ++out->completed;
      out->last_pop_ns = std::max(out->last_pop_ns, popped_ns);
      if (spans_ != nullptr) {
        out->queue_wait_ns.push_back(req->start_ns - req->enqueue_ns);
        out->reply_ns.push_back(popped_ns > req->done_ns ? popped_ns - req->done_ns : 0);
      }
    }
    Free(req, req->retries);
  }

  // Collects every completion that is back; returns whether there was one.
  bool Harvest(OpenStats* out) {
    bool any = false;
    while (Request* req = PopOne()) {
      Finish(req, NowNs(), out);
      any = true;
    }
    return any;
  }

  void DrainOwn(OpenStats* out) {
    while (outstanding_ > 0) {
      if (Request* req = PopOne()) {
        Finish(req, NowNs(), out);
      } else {
        std::this_thread::yield();
      }
    }
  }

  Service* svc_;
  Pool* pool_;
  std::uint32_t cluster_;
  KeyStream keys_;
  SpanBuffer* spans_;
  hlock::LockFreeFreeList completion_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t popped_ns_ = 0;
  std::pair<std::uint64_t, std::uint64_t> alloc_span_{0, 0};
};

// The pool outlives the service: the service is torn down first.
struct Rig {
  std::unique_ptr<Pool> pool;
  std::unique_ptr<Service> svc;
  double rate = 0;  // open-loop offered ops/s, all clients together
  std::uint64_t seed = 0;
  std::uint64_t phase = 0;  // stream id of the next phase's clients
  Tally tally;
  std::vector<std::unique_ptr<SpanBuffer>> spans;  // per client, traced runs
};

hsvc::ServiceConfig MakeConfig() {
  hsvc::ServiceConfig cfg;
  cfg.topology = hcluster::Topology{kClusters, 1};
  cfg.buckets_per_cluster = kKeysPerCluster;
  return cfg;
}

// Builds a service in `*svc` and writes every key once through Submit, from the
// calling thread with kPreloadWindow puts in flight.  Returns the CPU seconds
// all threads spent on it -- wall time would mostly measure how soon the host
// woke each pump -- and counts puts that did not complete as written in
// `*bad`.
double SetUp(std::unique_ptr<Service>* svc, std::uint64_t* bad) {
  const std::uint64_t t0 = ProcessCpuNs();
  *svc = std::make_unique<Service>(MakeConfig());
  std::vector<Request> nodes(kPreloadWindow);
  hlock::LockFreeFreeList done;
  std::vector<Request*> idle;
  for (Request& node : nodes) {
    idle.push_back(&node);
  }
  const auto collect = [&] {
    while (hlock::LockFreeNode* link = done.Pop()) {
      Request* req = Request::FromFreeLink(link);
      if (req->status != hsvc::Status::kOk || req->value_out != req->value_in) {
        ++*bad;
      }
      idle.push_back(req);
    }
  };
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    while (idle.empty()) {
      std::this_thread::yield();
      collect();
    }
    Request* req = idle.back();
    idle.pop_back();
    req->completion = &done;
    req->kind = OpKind::kPut;
    req->key = key;
    req->value_in = EncodeValue(key, 0);
    req->deadline_ns = 0;
    while (!(*svc)->Submit(req, 0).admitted) {
      collect();
    }
  }
  while (idle.size() < nodes.size()) {
    std::this_thread::yield();
    collect();
  }
  return static_cast<double>(ProcessCpuNs() - t0) / 1e9;
}

// Closed loop for `seconds`; returns completions/s of each kWindowS window.
std::vector<double> ClosedLoop(Rig* rig, double seconds, bool traced) {
  std::atomic<bool> stop{false};
  std::array<std::atomic<std::uint64_t>, kClients> progress{};
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::thread> threads;
  ++rig->phase;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(
        rig->svc.get(), rig->pool.get(), c, StreamSeed(rig->seed, rig->phase * 16 + c),
        traced ? rig->spans[c].get() : nullptr));
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] { clients[c]->RunClosed(stop, &progress[c]); });
  }
  const auto total = [&] {
    std::uint64_t n = 0;
    for (const auto& p : progress) {
      n += p.load(std::memory_order_relaxed);
    }
    return n;
  };
  std::vector<double> rates;
  const auto windows = std::max(1, static_cast<int>(seconds / kWindowS));
  for (int w = 0; w < windows; ++w) {
    const std::uint64_t n0 = total();
    const std::uint64_t t0 = NowNs();
    std::this_thread::sleep_for(std::chrono::duration<double>(kWindowS));
    const std::uint64_t n1 = total();
    const std::uint64_t t1 = NowNs();
    rates.push_back(static_cast<double>(n1 - n0) * 1e9 / static_cast<double>(t1 - t0));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
  for (const auto& client : clients) {
    rig->tally.Merge(client->tally);
  }
  return rates;
}

OpenStats OpenLoop(Rig* rig, double seconds, bool traced) {
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<OpenStats> stats(kClients);
  for (OpenStats& st : stats) {
    st.Reserve(seconds, rig->rate / kClients, traced);
  }
  std::vector<std::thread> threads;
  ++rig->phase;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(
        rig->svc.get(), rig->pool.get(), c, StreamSeed(rig->seed, rig->phase * 16 + c),
        traced ? rig->spans[c].get() : nullptr));
  }
  // A short common lead time so both clients start on the same schedule.
  const std::uint64_t start = NowNs() + 2'000'000;
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] { clients[c]->RunOpen(start, end, rig->rate / kClients, &stats[c]); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  OpenStats merged;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    rig->tally.Merge(clients[c]->tally);
    merged.Merge(stats[c]);
  }
  return merged;
}

struct ReplayCosts {
  double mcs_h2_pair_ns = 0;
  double tas_pair_ns = 0;
  double peek_ns = 0;
  double reserve_pair_ns = 0;
  bool values_ok = true;
};

// Replays the workload's key stream from one thread against a lock array and
// a standalone HybridTable, in alternating blocks so every structure sees the
// same host conditions.  Per-op cost is the median over blocks.
ReplayCosts Replay(std::uint64_t seed, double seconds, SpanBuffer* spans) {
  constexpr std::size_t kLocks = 64;
  constexpr std::size_t kBlock = 256;
  KeyStream stream(0, seed);
  std::vector<std::uint64_t> keys(1 << 16);
  for (std::uint64_t& k : keys) {
    k = stream.Next().key;
  }
  auto mcs = std::make_unique<std::array<hlock::McsH2Lock, kLocks>>();
  auto tas = std::make_unique<std::array<hlock::TasSpinLock, kLocks>>();
  hlock::HybridTable<std::uint64_t, std::uint64_t> table(kKeys, 1);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    auto guard = table.Acquire(key);
    guard.value() = EncodeValue(key, 0);
  }

  ReplayCosts costs;
  std::vector<double> mcs_ns, tas_ns, peek_ns, reserve_ns;
  std::size_t next = 0;
  std::uint64_t block_id = 0;
  const auto timed = [&](std::uint32_t name, std::vector<double>* out, auto&& body) {
    const std::size_t base = next;
    next = (next + kBlock) % keys.size();
    const std::uint64_t t0 = NowNs();
    for (std::size_t i = 0; i < kBlock; ++i) {
      body(keys[(base + i) % keys.size()]);
    }
    const std::uint64_t t1 = NowNs();
    spans->Add(name, ++block_id, 0, t0, t1);
    out->push_back(static_cast<double>(t1 - t0) / kBlock);
  };
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    timed(kSpanMcsH2Block, &mcs_ns, [&](std::uint64_t k) {
      hlock::McsH2Lock& lock = (*mcs)[k % kLocks];
      lock.lock();
      lock.unlock();
    });
    timed(kSpanTasBlock, &tas_ns, [&](std::uint64_t k) {
      hlock::TasSpinLock& lock = (*tas)[k % kLocks];
      lock.lock();
      lock.unlock();
    });
    timed(kSpanPeekBlock, &peek_ns, [&](std::uint64_t k) {
      const std::optional<std::uint64_t> v = table.Peek(k);
      if (!v.has_value() || *v >> kTagBits != k) {
        costs.values_ok = false;
      }
    });
    timed(kSpanReserveBlock, &reserve_ns, [&](std::uint64_t k) {
      auto guard = table.Acquire(k);
      guard.Release();
    });
  }
  costs.mcs_h2_pair_ns = Median(mcs_ns);
  costs.tas_pair_ns = Median(tas_ns);
  costs.peek_ns = Median(peek_ns);
  costs.reserve_pair_ns = Median(reserve_ns);
  return costs;
}

double Frac(double num, double den) { return den == 0 ? 0 : num / den; }

// The open-loop numbers are valid only while the client sends the median
// request on time; reports the lag on stderr and fails the run otherwise.
void CheckSendLag(std::vector<std::uint64_t>* lag_ns, Result* res) {
  const double p50_us = static_cast<double>(Percentile(lag_ns, 50)) / 1e3;
  std::fprintf(stderr, "perfbench: open-loop send lag p50 %.3f us, p90 %.3f us, p99 %.3f us\n",
               p50_us, static_cast<double>(Percentile(lag_ns, 90)) / 1e3,
               static_cast<double>(Percentile(lag_ns, 99)) / 1e3);
  res->Check(p50_us <= kMaxSendLagP50Us,
             "open-loop send lag p50 " + std::to_string(p50_us) + " us exceeds bound");
}

struct ServiceCounters {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t served = 0;
  std::uint64_t expired = 0;
  std::uint64_t combined = 0;
  std::uint64_t batches = 0;
  std::uint64_t retries = 0;
  std::uint64_t replications = 0;
  std::uint64_t local_hits = 0;
};

ServiceCounters ReadCounters(Service* svc) {
  ServiceCounters c;
  c.admitted = svc->admitted();
  c.rejected = svc->rejected();
  c.served = svc->served();
  c.expired = svc->expired();
  c.combined = svc->combined_gets();
  hmetrics::Registry reg;
  svc->ExportMetrics(&reg);
  for (std::uint32_t s = 0; s < kClusters; ++s) {
    c.batches += reg.counter("svc.batches", {{"shard", std::to_string(s)}}).value();
    c.local_hits += svc->table().local_hits(s);
  }
  c.retries = svc->table().retries();
  c.replications = svc->table().replications();
  return c;
}

}  // namespace

bool IsSvcWorkload(const std::string& name) { return name == "svc_read_mostly"; }

unsigned SvcThreads() { return kClusters /* pumps */ + kClients; }

Result RunSvc(const Options& opts, TraceLog* log) {
  Result res;
  Rig rig;
  rig.rate = opts.svc_rate;
  rig.seed = opts.seed;
  if (opts.trace) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      rig.spans.push_back(std::make_unique<SpanBuffer>(c + 1, kSpansPerThread));
    }
  }

  // The rig's own service is the first set-up.  Untraced runs time more
  // between their rounds, on spare services torn down right after, so the
  // samples spread over the run: the host's speed drifts over seconds.
  std::vector<double> setups;
  std::uint64_t bad_preloads = 0;
  setups.push_back(SetUp(&rig.svc, &bad_preloads));
  halloc::SlabConfig pool_cfg;
  pool_cfg.objects_per_cluster = 16384;
  pool_cfg.magazine_size = 8;
  rig.pool = std::make_unique<Pool>(kClusters, pool_cfg);

  const double s = opts.seconds;
  ClosedLoop(&rig, std::min(0.5, 0.05 * s), false);  // warm-up: replicas fill

  if (!opts.trace) {
    // Closed and open phases alternate so both sample the whole run: a
    // shared host's speed drifts over seconds.
    std::vector<double> rates;
    std::vector<std::uint64_t> lag;
    double queue_ns = 0;
    double resident_ns = 0;
    std::uint64_t open_completed = 0;
    std::uint64_t open_ns = 0;  // schedule start to last completion, summed
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kSetUpsPerRound; ++i) {
        std::unique_ptr<Service> spare;
        setups.push_back(SetUp(&spare, &bad_preloads));
      }
      const Tally before = rig.tally;
      const std::vector<double> r = ClosedLoop(&rig, 0.4 * s / kRounds, false);
      rates.insert(rates.end(), r.begin(), r.end());
      queue_ns += rig.tally.queue_ns - before.queue_ns;
      resident_ns += rig.tally.resident_ns - before.resident_ns;
      const OpenStats open = OpenLoop(&rig, 0.45 * s / kRounds, false);
      lag.insert(lag.end(), open.lag_ns.begin(), open.lag_ns.end());
      open_completed += open.completed;
      open_ns += open.last_pop_ns - open.start_ns;
    }
    rig.svc->Drain();
    CheckSendLag(&lag, &res);
    const double queue_frac = Frac(queue_ns, resident_ns);
    res.Check(queue_frac >= kMinClosedQueueFrac,
              "closed loop not service-bound: queue share " + std::to_string(queue_frac));

    res.Set("capacity_rps", Median(rates), "1/s");
    // Every request on the schedule is sent, late if the service falls
    // behind, so a slow service shows as completions ending late.
    res.Set("ops_per_s", static_cast<double>(open_completed) * 1e9 / static_cast<double>(open_ns),
            "1/s");
  } else {
    const std::vector<double> plain = ClosedLoop(&rig, 0.2 * s, false);
    const Tally before_traced = rig.tally;
    const std::vector<double> traced = ClosedLoop(&rig, 0.2 * s, true);
    const Tally closed = rig.tally;
    const OpenStats open = OpenLoop(&rig, 0.3 * s, true);
    rig.svc->Drain();
    const ServiceCounters sc = ReadCounters(rig.svc.get());
    const halloc::CacheStats cache = rig.pool->core().TotalCacheStats();
    for (const auto& buf : rig.spans) {
      log->Adopt(*buf);
    }

    SpanBuffer replay_spans(0, kSpansPerThread);
    const ReplayCosts rc = Replay(StreamSeed(opts.seed, 999), 0.2 * s, &replay_spans);
    log->Adopt(replay_spans);
    res.Check(rc.values_ok, "replay Peek returned a value not written for its key");

    const double empty = EmptySpanNs();
    const auto self_ns = [&](std::uint32_t name) { return std::max(0.0, log->MeanNs(name) - empty); };
    std::vector<std::uint64_t> lag = open.lag_ns;
    CheckSendLag(&lag, &res);
    std::vector<std::uint64_t> qwait = open.queue_wait_ns;
    const std::uint64_t table_gets = rig.tally.gets - sc.combined;

    std::vector<std::uint64_t> latency;
    std::vector<double> p50;
    for (std::vector<std::uint64_t> window : open.latency_ns) {
      latency.insert(latency.end(), window.begin(), window.end());
      if (window.size() >= 1000) {  // the last window can be a sliver
        p50.push_back(static_cast<double>(Percentile(&window, 50)) / 1e3);
      }
    }
    res.Set("svc.p50_us", Median(p50), "us");
    res.Set("svc.p99_us", static_cast<double>(Percentile(&latency, 99)) / 1e3, "us");
    res.Set("client.send_lag_us", static_cast<double>(Percentile(&lag, 99)) / 1e3, "us");
    res.Set("client.closed_queue_frac",
            Frac(closed.queue_ns - before_traced.queue_ns,
                 closed.resident_ns - before_traced.resident_ns),
            "ratio");
    res.Set("halloc.alloc_ns", self_ns(kSpanAlloc), "ns");
    res.Set("halloc.free_ns", self_ns(kSpanFree), "ns");
    res.Set("halloc.fast_frac", Frac(static_cast<double>(cache.alloc_fast),
                                     static_cast<double>(cache.allocs())), "ratio");
    res.Set("svc.submit_ns", self_ns(kSpanSubmit), "ns");
    res.Set("svc.service_ns", Mean(rig.tally.service_ns), "ns");
    res.Set("svc.queue_wait_p50_us", static_cast<double>(Percentile(&qwait, 50)) / 1e3, "us");
    res.Set("svc.queue_wait_p99_us", static_cast<double>(Percentile(&qwait, 99)) / 1e3, "us");
    res.Set("svc.reply_us", Mean(open.reply_ns) / 1e3, "us");
    res.Set("svc.admit_frac", 1.0 - Frac(static_cast<double>(rig.tally.rejected),
                                         static_cast<double>(rig.tally.issued)), "ratio");
    res.Set("svc.combined_frac", Frac(static_cast<double>(sc.combined),
                                      static_cast<double>(rig.tally.gets)), "ratio");
    res.Set("svc.batch_fill", Frac(static_cast<double>(sc.served + sc.expired),
                                   static_cast<double>(sc.batches)), "count");
    res.Set("cluster.retry_per_op", Frac(static_cast<double>(sc.retries),
                                         static_cast<double>(sc.served)), "ratio");
    res.Set("cluster.replications", static_cast<double>(sc.replications), "count");
    res.Set("cluster.put_us", Mean(rig.tally.put_ns) / 1e3, "us");
    res.Set("cluster.local_hit_frac", Frac(static_cast<double>(sc.local_hits),
                                           static_cast<double>(table_gets)), "ratio");
    res.Set("lock.mcs_h2_pair_ns", rc.mcs_h2_pair_ns, "ns");
    res.Set("lock.tas_pair_ns", rc.tas_pair_ns, "ns");
    res.Set("lock.mcs_h2_tas_ratio", Frac(rc.mcs_h2_pair_ns, rc.tas_pair_ns), "ratio");
    res.Set("table.peek_ns", rc.peek_ns, "ns");
    res.Set("table.reserve_pair_ns", rc.reserve_pair_ns, "ns");
    res.Set("trace.capacity_ratio", Frac(Median(traced), Median(plain)), "ratio");
    log->Counter("svc.admitted", static_cast<double>(sc.admitted));
    log->Counter("svc.rejected", static_cast<double>(sc.rejected));
    log->Counter("svc.combined_gets", static_cast<double>(sc.combined));
    log->Counter("svc.batches", static_cast<double>(sc.batches));
    log->Counter("cluster.retries", static_cast<double>(sc.retries));
    log->Counter("cluster.replications", static_cast<double>(sc.replications));
    log->Counter("halloc.alloc_fast", static_cast<double>(cache.alloc_fast));
    log->Counter("halloc.allocs", static_cast<double>(cache.allocs()));
    log->Counter("empty_span_ns", empty);
    log->Counter("capacity_rps.untraced", Median(plain));
    log->Counter("capacity_rps.traced", Median(traced));
  }

  // Outputs: every preload put landed, every admitted request completed
  // exactly once, and no value came back that was not written for its key.
  res.Check(bad_preloads == 0, std::to_string(bad_preloads) + " preload puts failed");
  rig.svc->Drain();
  const std::uint64_t admitted = rig.svc->admitted() - kKeys;  // less the preload
  res.Check(admitted == rig.tally.completed,
            "admitted " + std::to_string(admitted) + " != completed " +
                std::to_string(rig.tally.completed));
  res.Check(rig.svc->served() + rig.svc->expired() == rig.svc->admitted(),
            "served + expired != admitted after Drain");
  res.Check(rig.tally.bad_values == 0,
            std::to_string(rig.tally.bad_values) + " completions carried a wrong value");
  res.attempted = rig.tally.issued;
  res.failed = rig.tally.failed;
  if (opts.trace) {
    res.Set("fail_frac", Frac(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
            "ratio");
  } else {
    res.Set("setup_s", Median(setups), "s");
  }
  return res;
}

}  // namespace perfbench
