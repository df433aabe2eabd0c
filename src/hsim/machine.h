// Model of the HECTOR multiprocessor.
//
// HECTOR (Vranesic et al.) is a NUMA shared-memory multiprocessor without
// hardware cache coherence: processor-memory modules share a station bus, and
// stations are connected by a ring.  The paper's prototype is 4 stations of 4
// modules (16 processors) with uncontended access times of 10 cycles (local,
// on-module), 19 cycles (on-station) and 23 cycles (cross-ring), and an
// atomic-swap primitive that costs two memory accesses, of which the
// requesting processor only waits for the first (the MC88100 continues as
// soon as the fetch half completes).
//
// Every shared word of simulated kernel memory is a SimWord homed on one
// module.  Loads, stores and atomic swaps traverse the route between the
// requesting processor's module and the word's home module, occupying the
// station buses, the ring, and the target memory module.  Contention between
// transactions therefore produces exactly the queueing behaviour whose
// second-order effects the paper measures: processors spinning over the
// network slow down both bystanders and the lock holder itself.
//
// Word storage.  The machine hands out words from chunks it owns: each chunk
// is one host array, the first kFirstChunkWords long and every next one twice
// the last, up to kMaxChunkWords (kept below glibc's 128 KiB mmap threshold,
// so chunks come from the heap and a small machine pays only for the words it
// uses).  AllocWords(home, n) returns n contiguous words from the current
// chunk, opening a new one when they do not fit; the old chunk's tail is left
// unused.  Chunks are freed only with the Machine, so a word's address is
// stable for the machine's whole life.

#ifndef HSIM_MACHINE_H_
#define HSIM_MACHINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/hmetrics/trace.h"
#include "src/hsim/engine.h"
#include "src/hsim/fault.h"
#include "src/hsim/opstats.h"
#include "src/hsim/random.h"
#include "src/hsim/resource.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {

// One word of simulated shared memory, homed on a memory module.  Values are
// held natively (the engine is single threaded); timing and ordering come
// from routing every access through the machine's resources.
//
// When the machine runs in cache-coherent mode (Section 5.2's hypothetical),
// each word also tracks which processors hold it cached: `sharers` is a
// bitmask, `owner` the processor holding it exclusively (or kNoOwner).
struct SimWord {
  static constexpr std::uint32_t kNoOwner = ~0u;

  std::uint64_t value = 0;
  ModuleId home = 0;
  std::uint32_t sharers = 0;
  std::uint32_t owner = kNoOwner;
};

struct MachineConfig {
  std::uint32_t stations = 4;
  std::uint32_t modules_per_station = 4;

  // Service times, chosen so that uncontended access latencies match the
  // paper: local 10, on-station 4+10+4+1 = 19, cross-ring 2+2+2+10+2+2+2+1
  // = 23 cycles.
  Tick mem_service = 10;     // memory module hold per access
  Tick bus_request = 4;      // station bus hold, request leg (on-station)
  Tick bus_response = 4;     // station bus hold, response leg (on-station)
  Tick ring_bus_hold = 2;    // station bus hold per leg when transiting to/from the ring
  Tick ring_hold = 2;        // ring hold per direction
  Tick remote_pad = 1;       // fixed interface latency for any off-module access
  std::uint32_t atomic_accesses = 2;  // an atomic swap performs two memory accesses
  // Section 5.2 what-if: hardware cache coherence with cache-based atomics.
  // Loads of a shared line and stores/RMWs to an exclusively-held line cost
  // `cache_hit_cycles` and touch no shared resource; misses and ownership
  // transfers take the normal uncached path (plus an invalidation hold at the
  // home module when other processors cache the line).
  bool cache_coherent = false;
  Tick cache_hit_cycles = 1;
  Tick cached_rmw_cycles = 3;

  std::uint32_t num_processors() const { return stations * modules_per_station; }
};

class Machine;

// A simulated CPU.  All simulated code runs "on" a Processor and charges its
// instruction and memory operations here.
class Processor {
 public:
  Processor(Machine* machine, ProcId id);
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  ProcId id() const { return id_; }
  ModuleId module() const { return id_; }  // one processor per processor-memory module
  StationId station() const;

  Machine& machine() { return *machine_; }
  Engine& engine();
  Tick now() { return engine().now(); }
  OpStats& stats() { return stats_; }
  Rng& rng() { return rng_; }

  // --- memory operations ----------------------------------------------------
  Task<std::uint64_t> Load(SimWord& word);
  Task<void> Store(SimWord& word, std::uint64_t value);
  // A store absorbed by the processor's write buffer: the value is applied
  // and the target module is occupied as usual, but the processor does not
  // wait.  Only valid for words on the processor's own module (the MC88100
  // write buffer hides local stores whose result nothing reads immediately).
  void PostStore(SimWord& word, std::uint64_t value);
  // Atomic swap: the only read-modify-write HECTOR supports.  Returns the old
  // value.  Costs two memory accesses at the module; the processor resumes
  // after the fetch half.
  Task<std::uint64_t> FetchStore(SimWord& word, std::uint64_t value);
  // Compare-and-swap.  Not available on HECTOR; provided for the paper's
  // "if compare_and_swap were available" comparison points.
  Task<bool> CompareSwap(SimWord& word, std::uint64_t expected, std::uint64_t desired);
  // Atomic fetch-and-add; harness-level convenience (barriers, counters).
  Task<std::uint64_t> FetchAdd(SimWord& word, std::uint64_t delta);

  // --- instruction execution -------------------------------------------------
  // Each charges its stats at the call and returns the engine's WaitAwaiter
  // (no coroutine frame), so await the result at once.
  //
  // Charges `reg` register-to-register instructions and `branches` branch
  // instructions, one cycle each (single-issue MC88100).
  Engine::WaitAwaiter Exec(std::uint32_t reg, std::uint32_t branches) {
    stats_.reg_instrs += reg;
    stats_.branches += branches;
    return engine().Delay(reg + branches);
  }
  // Pure time: processor is busy computing for `cycles` (no shared-memory
  // traffic).  Used for fixed-cost kernel work.
  Engine::WaitAwaiter Compute(Tick cycles) { return engine().Delay(cycles); }
  // Pure time with no work: backoff delay (counted as idle).
  Engine::WaitAwaiter BackoffDelay(Tick cycles) {
    stats_.idle_cycles += cycles;
    return engine().Delay(cycles);
  }

 private:
  enum class AccessKind { kLoad, kStore, kSwap, kCas, kFetchAdd };

  // Access wrapped in an hmetrics span (only instantiated when the machine's
  // trace session has the memory category enabled): the span covers the whole
  // access including its queueing time at buses/ring/module, so contention is
  // directly visible in the trace viewer.
  Task<std::uint64_t> TracedAccess(SimWord& word, AccessKind kind, std::uint64_t operand,
                                   std::uint64_t expected, bool* cas_ok, const char* name);

  // Routes an access to `word`'s home module and applies the value operation
  // at the module's ordering point.  Returns the value read (old value for
  // RMW ops; for kCas the returned value is the old value and `*cas_ok`
  // reports success).
  Task<std::uint64_t> Access(SimWord& word, AccessKind kind, std::uint64_t operand,
                             std::uint64_t expected, bool* cas_ok);

  // The cache-coherent variant of Access (MachineConfig::cache_coherent).
  Task<std::uint64_t> CoherentAccess(SimWord& word, AccessKind kind, std::uint64_t operand,
                                     std::uint64_t expected, bool* cas_ok);

  Machine* machine_;
  ProcId id_;
  OpStats stats_;
  Rng rng_;
};

class Machine {
 public:
  Machine(Engine* engine, const MachineConfig& config);

  const MachineConfig& config() const { return config_; }
  Engine& engine() { return *engine_; }

  // --- tracing ----------------------------------------------------------------
  // Attaches an hmetrics trace session.  Producers (locks, the memory system,
  // the kernel's RPC layer) emit spans onto it; recording never advances
  // simulated time, so a traced run is bit-identical to an untraced one.
  void set_trace(hmetrics::TraceSession* trace) {
    trace_ = trace;
    if (trace_ != nullptr) {
      trace_->set_ticks_per_us(static_cast<double>(kCyclesPerMicrosecond));
    }
  }
  hmetrics::TraceSession* trace() { return trace_; }
  bool trace_enabled(hmetrics::TraceCategory cat) const {
    return trace_ != nullptr && trace_->enabled(cat);
  }

  // --- fault injection --------------------------------------------------------
  // Installs an adversarial transport plan.  The RPC layer consults it on
  // every request/reply send; without a plan the transport is perfect.  The
  // plan's PRNG is independent of the processors' backoff PRNGs, so enabling
  // faults perturbs only the transport.
  void set_fault_plan(const FaultConfig& config) {
    fault_plan_ = std::make_unique<FaultPlan>(config);
  }
  void clear_fault_plan() { fault_plan_.reset(); }
  FaultPlan* fault_plan() { return fault_plan_.get(); }

  std::uint32_t num_processors() const { return config_.num_processors(); }
  Processor& processor(ProcId id) { return *processors_[id]; }

  StationId station_of(ModuleId module) const { return module / config_.modules_per_station; }

  Resource& memory(ModuleId module) { return *memories_[module]; }
  Resource& bus(StationId station) { return *buses_[station]; }
  Resource& ring() { return *ring_; }

  // Allocates `n` contiguous words of simulated memory homed on `module`,
  // each with value 0 and no cached copies.  Words are stable in memory for
  // the life of the Machine.
  SimWord* AllocWords(ModuleId module, std::size_t n);

  // Allocates one word homed on `module` holding `initial`.
  SimWord& AllocWord(ModuleId module, std::uint64_t initial = 0) {
    SimWord& word = *AllocWords(module, 1);
    word.value = initial;
    return word;
  }

  // Aggregate interconnect statistics (for reporting contention).
  Tick total_bus_wait() const;
  Tick total_memory_wait() const;
  Tick total_ring_wait() const { return ring_->total_wait(); }
  void ResetResourceStats();

 private:
  Engine* engine_;
  MachineConfig config_;
  hmetrics::TraceSession* trace_ = nullptr;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::vector<std::unique_ptr<Resource>> memories_;
  std::vector<std::unique_ptr<Resource>> buses_;
  std::unique_ptr<Resource> ring_;
  std::vector<std::unique_ptr<Processor>> processors_;

  // Word chunks (see the top of this file).  A chunk is raw storage whose
  // words are constructed as they are handed out, so each is written once.
  static constexpr std::size_t kFirstChunkWords = 16;
  static constexpr std::size_t kMaxChunkWords = 4096;  // 96 KiB
  static_assert(kMaxChunkWords * sizeof(SimWord) < 128 * 1024);
  static_assert(std::is_trivially_destructible_v<SimWord>);
  struct ChunkFree {
    void operator()(SimWord* chunk) const { ::operator delete(chunk); }
  };

  std::vector<std::unique_ptr<SimWord, ChunkFree>> chunks_;
  SimWord* chunk_next_ = nullptr;  // first unused word of the current chunk
  std::size_t chunk_left_ = 0;     // unused words left in it
  std::size_t next_chunk_words_ = kFirstChunkWords;
};

inline Engine& Processor::engine() { return machine_->engine(); }

}  // namespace hsim

#endif  // HSIM_MACHINE_H_
