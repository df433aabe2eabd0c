// hflight: always-on per-request flight recorder with tail sampling.
//
// Every request carries a FlightRecord -- a fixed-size span context allocated
// from a per-cluster overwrite-oldest ring (halloc-backed, so record storage
// is homed at the request's origin cluster and the hot path never allocates).
// The record accumulates a *phase ledger*: raw stamps at the pipeline's
// boundary events (submit, admission, batch pull, execution, completion,
// client observation) plus accumulators filled during execution (lock wait
// per hprof site with a cross-cluster tag, lock hold, RPC time and
// retransmit count).  Close() derives the eight phases so that they sum to
// the record's end-to-end latency *exactly* -- the reconciliation property
// tools/hwhy verifies.
//
//   phase        interval                     meaning
//   -----------  ---------------------------  -------------------------------
//   admit        begin .. enqueue             admission control + retry backoff
//   inbox        enqueue .. start             waiting in the bounded MPSC inbox
//   batch        start .. exec                batch formation / deadline checks
//   lock_wait    (within exec .. done)        waiting on lock sites
//   hold         (within exec .. done)        critical sections held
//   rpc          (within exec .. done)        remote calls incl. retransmits
//   other        exec..done minus the above   service time proper
//   reply        done .. end                  completion delivery to the client
//
// Stamps are backend-clock ticks: steady_clock nanoseconds for native runs,
// simulator ticks (16/us) under hsim, so the recorder works unchanged under
// native, hcheck, and hsim.  Recording is a pure host-side observer and
// never advances simulated time.
//
// Tail sampling: a seeded Vitter reservoir of end-to-end latencies tracks a
// configurable quantile; requests at or above the current threshold are
// *promoted* -- a full copy is retained for Chrome-trace span export (with
// causal parent/child ids across RPC legs) and per-site tail attribution.
// Everything else contributes only to cheap per-phase histograms.  The
// sampler is deterministic: same seed + same close order = same promotions.
//
// Lock-wait capture has two paths:
//   - native threads arm a ScopedLedger around instrumented work; hprof lock
//     sites report grants/releases to the thread's WaitObserver and the
//     ledger charges them to the armed record;
//   - hsim harnesses (where coroutines interleave on one host thread and a
//     thread-local would misattribute) stamp records directly via
//     FlightRecord::AddLockWait/AddHold/AddRpc.

#ifndef HFLIGHT_FLIGHT_H_
#define HFLIGHT_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hmetrics/histogram.h"
#include "src/hmetrics/json.h"
#include "src/hmetrics/trace.h"

namespace hflight {

inline constexpr const char* kFlightSchema = "hurricane-flight/1";

enum class Phase : int {
  kAdmit = 0,
  kInbox,
  kBatch,
  kLockWait,
  kHold,
  kRpc,
  kOther,
  kReply,
};
inline constexpr int kNumPhases = 8;

inline const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kAdmit:
      return "admit";
    case Phase::kInbox:
      return "inbox";
    case Phase::kBatch:
      return "batch";
    case Phase::kLockWait:
      return "lock_wait";
    case Phase::kHold:
      return "hold";
    case Phase::kRpc:
      return "rpc";
    case Phase::kOther:
      return "other";
    case Phase::kReply:
      return "reply";
  }
  return "?";
}

// Terminal fate of a request, stamped at Close.
enum class Fate : int {
  kOpen = 0,  // still in flight (only ever observed on open records)
  kOk,
  kNotFound,
  kExpired,
  kRejected,
  kAbandoned,
  kError,
};
inline constexpr int kNumFates = 7;

inline const char* FateName(Fate f) {
  switch (f) {
    case Fate::kOpen:
      return "open";
    case Fate::kOk:
      return "ok";
    case Fate::kNotFound:
      return "notfound";
    case Fate::kExpired:
      return "expired";
    case Fate::kRejected:
      return "rejected";
    case Fate::kAbandoned:
      return "abandoned";
    case Fate::kError:
      return "error";
  }
  return "?";
}

// Per-lock-site wait accumulated by one request.  `site` is a FlightRecorder
// intern id (resolved to the hprof site name at export).
struct SiteWait {
  std::uint32_t site = 0;
  std::uint64_t ticks = 0;
  std::uint64_t cross_ticks = 0;  // portion granted via cross-cluster handoff
};

struct FlightRecord {
  static constexpr std::uint64_t kUnset = ~0ull;
  static constexpr int kMaxSiteWaits = 4;

  // -- identity / outcome ----------------------------------------------------
  std::uint64_t id = 0;      // unique per Open (1-based)
  std::uint64_t parent = 0;  // causal parent across RPC legs; 0 = root
  std::uint32_t origin_cluster = 0;
  std::uint32_t retries = 0;          // admission retries (hload)
  std::uint32_t rpc_retransmits = 0;  // transport retransmits charged to us
  Fate fate = Fate::kOpen;
  bool open = false;
  bool was_promoted = false;

  // -- raw stamps (backend-clock ticks; kUnset when a stage never ran) -------
  std::uint64_t begin = 0;
  std::uint64_t enqueue = kUnset;
  std::uint64_t start = kUnset;
  std::uint64_t exec = kUnset;
  std::uint64_t done = kUnset;
  std::uint64_t end = 0;

  // -- execution-time accumulators -------------------------------------------
  std::uint64_t lock_wait = 0;
  std::uint64_t lock_wait_cross = 0;
  std::uint64_t hold = 0;
  std::uint64_t rpc = 0;
  SiteWait site_waits[kMaxSiteWaits];
  std::uint32_t num_site_waits = 0;

  // -- derived ledger (filled by Finalize; sums exactly to total()) ----------
  std::uint64_t phase[kNumPhases] = {};

  void Reset(std::uint64_t new_id, std::uint32_t cluster, std::uint64_t begin_ticks,
             std::uint64_t parent_id) {
    *this = FlightRecord{};
    id = new_id;
    parent = parent_id;
    origin_cluster = cluster;
    begin = begin_ticks;
    open = true;
  }

  void AddLockWait(std::uint32_t site_id, std::uint64_t ticks, bool cross) {
    lock_wait += ticks;
    if (cross) {
      lock_wait_cross += ticks;
    }
    for (std::uint32_t i = 0; i < num_site_waits; ++i) {
      if (site_waits[i].site == site_id) {
        site_waits[i].ticks += ticks;
        if (cross) {
          site_waits[i].cross_ticks += ticks;
        }
        return;
      }
    }
    // Full slot table: fold the overflow into the last slot rather than
    // losing the ticks (records are fixed-size by design).
    std::uint32_t slot = kMaxSiteWaits - 1;
    if (num_site_waits < kMaxSiteWaits) {
      slot = num_site_waits++;
      site_waits[slot].site = site_id;
    }
    site_waits[slot].ticks += ticks;
    if (cross) {
      site_waits[slot].cross_ticks += ticks;
    }
  }

  void AddHold(std::uint64_t ticks) { hold += ticks; }

  void AddRpc(std::uint64_t ticks, std::uint32_t retransmits) {
    rpc += ticks;
    rpc_retransmits += retransmits;
  }

  std::uint64_t total() const { return end - begin; }

  // Derives the phase ledger from the raw stamps.  Unset stamps collapse to
  // the previous boundary (a rejected request has admit + reply only); out of
  // order stamps clamp monotonic.  The execution-time accumulators are capped
  // at the exec..done span in ledger order so the eight phases always sum to
  // total() exactly.
  void Finalize() {
    if (end < begin) {
      end = begin;
    }
    auto clamp = [](std::uint64_t v, std::uint64_t lo, std::uint64_t hi) {
      return v == kUnset ? lo : (v < lo ? lo : (v > hi ? hi : v));
    };
    const std::uint64_t enq = clamp(enqueue, begin, end);
    const std::uint64_t st = clamp(start, enq, end);
    const std::uint64_t ex = clamp(exec, st, end);
    const std::uint64_t dn = done == kUnset ? end : clamp(done, ex, end);
    phase[static_cast<int>(Phase::kAdmit)] = enq - begin;
    phase[static_cast<int>(Phase::kInbox)] = st - enq;
    phase[static_cast<int>(Phase::kBatch)] = ex - st;
    const std::uint64_t span = dn - ex;
    const std::uint64_t lw = lock_wait < span ? lock_wait : span;
    const std::uint64_t hd = hold < span - lw ? hold : span - lw;
    const std::uint64_t rp = rpc < span - lw - hd ? rpc : span - lw - hd;
    phase[static_cast<int>(Phase::kLockWait)] = lw;
    phase[static_cast<int>(Phase::kHold)] = hd;
    phase[static_cast<int>(Phase::kRpc)] = rp;
    phase[static_cast<int>(Phase::kOther)] = span - lw - hd - rp;
    phase[static_cast<int>(Phase::kReply)] = end - dn;
  }
};

struct FlightConfig {
  std::uint32_t clusters = 1;
  std::uint32_t ring_size = 1024;  // records per cluster; rounded up to 2^k
  double ticks_per_us = 1000.0;    // native steady_clock ns; 16 under hsim
  double tail_quantile = 0.99;     // promote totals at/above this quantile
  std::uint32_t reservoir_size = 512;
  std::uint32_t warmup_closes = 64;  // closes before promotion starts
  std::uint32_t max_promoted = 256;  // retained promoted copies
  std::uint64_t seed = 1;            // reservoir RNG seed (determinism)
};

// The recorder: per-cluster rings, the tail sampler, per-phase histograms,
// site interning, and the hurricane-flight/1 exporter.
//
// Thread-safety: Open is lock-free (one atomic fetch_add on the origin
// cluster's ring cursor); the opened record is owned by exactly one request
// at a time and travels with it over the service's existing release/acquire
// queue edges, so its fields need no atomics.  Close serializes aggregation
// under a small spin mutex.  Export/accessors are for quiescent readers.
class FlightRecorder {
 public:
  explicit FlightRecorder(const FlightConfig& cfg);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  const FlightConfig& config() const { return cfg_; }
  double ticks_per_us() const { return cfg_.ticks_per_us; }

  // Claims the origin cluster's next ring slot (overwriting the oldest
  // record, open or not) and opens it.  Never fails, never allocates.
  FlightRecord* Open(std::uint32_t cluster, std::uint64_t begin_ticks,
                     std::uint64_t parent_id = 0);

  // Stamps the terminal fate and end time, derives the phase ledger, and
  // feeds the aggregation + tail sampler.  The record stays readable in its
  // ring slot until overwritten.
  void Close(FlightRecord* rec, Fate fate, std::uint64_t end_ticks);

  // Stable id for a lock-site name (used by SiteWait entries).
  std::uint32_t InternSite(const std::string& name);
  std::string SiteName(std::uint32_t id) const;

  // -- quiescent accessors ---------------------------------------------------
  std::uint64_t opened() const { return opened_.load(std::memory_order_relaxed); }
  std::uint64_t closed() const;
  std::uint64_t overwritten_open() const {
    return overwritten_open_.load(std::memory_order_relaxed);
  }
  // Current promotion threshold in ticks; 0 while the sampler is warming up.
  std::uint64_t threshold_ticks() const;
  std::uint64_t promoted_dropped() const;
  std::vector<FlightRecord> promoted() const;
  std::uint64_t fate_count(Fate f) const;
  const hmetrics::Histogram& phase_hist(Phase p) const {
    return phase_hist_[static_cast<int>(p)];
  }
  const hmetrics::Histogram& total_hist() const { return total_hist_; }

  // Emits the promoted records as Chrome spans (category "flight"): one
  // flight/total span per record carrying id/parent/fate args -- the causal
  // chain across RPC legs -- plus consecutive per-phase child spans.
  void ExportSpans(hmetrics::TraceSession* trace) const;

  // hurricane-flight/1 document.
  void WriteJson(hmetrics::JsonWriter* w) const;
  std::string ToJson() const;

 private:
  struct Ring;
  struct SiteAgg {
    std::string name;
    std::uint64_t waits = 0;  // closed records that waited on this site
    std::uint64_t ticks = 0;
    std::uint64_t cross_ticks = 0;
  };
  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag* f) : flag(f) {
      while (flag->test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { flag->clear(std::memory_order_release); }
    std::atomic_flag* flag;
  };

  void RecomputeThreshold();  // caller holds mu_

  FlightConfig cfg_;
  std::uint32_t ring_mask_ = 0;
  struct Arena;  // halloc-backed record storage
  std::unique_ptr<Arena> arena_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> opened_{0};
  std::atomic<std::uint64_t> overwritten_open_{0};

  mutable std::atomic_flag mu_ = ATOMIC_FLAG_INIT;
  std::uint64_t closed_ = 0;
  std::uint64_t fates_[kNumFates] = {};
  hmetrics::Histogram phase_hist_[kNumPhases];
  hmetrics::Histogram total_hist_;
  std::vector<std::uint64_t> reservoir_;
  std::uint64_t rng_state_ = 0;
  std::uint64_t threshold_ = 0;
  bool threshold_valid_ = false;
  std::vector<FlightRecord> promoted_;
  std::uint64_t promoted_dropped_ = 0;
  std::vector<SiteAgg> sites_;
  std::map<std::string, std::uint32_t> site_ids_;
};

// Arms the calling thread's hprof WaitObserver so lock-site grants and
// releases during its lifetime are charged to `rec`'s lock_wait / hold
// accumulators (native threads only; see the header comment).  Passing a
// null recorder or record is a cheap no-op, so call sites need no branches.
class ScopedLedger {
 public:
  ScopedLedger(FlightRecorder* recorder, FlightRecord* rec);
  ~ScopedLedger();
  ScopedLedger(const ScopedLedger&) = delete;
  ScopedLedger& operator=(const ScopedLedger&) = delete;

 private:
  bool installed_ = false;
  void* prev_observer_ = nullptr;
  FlightRecorder* prev_recorder_ = nullptr;
  FlightRecord* prev_record_ = nullptr;
};

}  // namespace hflight

#endif  // HFLIGHT_FLIGHT_H_
