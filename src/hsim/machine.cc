#include "src/hsim/machine.h"

#include <algorithm>
#include <memory>
#include <new>
#include <string>

namespace hsim {
namespace {

// Background occupancy of the one-way path taken by the store half of a
// remote atomic swap.  Nobody waits on this (the processor resumed after the
// fetch half); it just consumes bandwidth, which is what gives remote
// test-and-set spinning its outsized second-order footprint.
Task<void> TrailingStoreLegs(Machine* m, StationId src_station, StationId dst_station) {
  const MachineConfig& cfg = m->config();
  if (src_station == dst_station) {
    co_await m->bus(src_station).Use(cfg.bus_request);
    co_return;
  }
  co_await m->bus(src_station).Use(cfg.ring_bus_hold);
  co_await m->ring().Use(cfg.ring_hold);
  co_await m->bus(dst_station).Use(cfg.ring_bus_hold);
}

}  // namespace

Processor::Processor(Machine* machine, ProcId id)
    : machine_(machine), id_(id), rng_(0xC0FFEE ^ (static_cast<std::uint64_t>(id) * 0x9E3779B9)) {}

StationId Processor::station() const { return machine_->station_of(module()); }

Task<std::uint64_t> Processor::Load(SimWord& word) {
  ++stats_.mem_loads;
  if (machine_->trace_enabled(hmetrics::kTraceMemory)) {
    return TracedAccess(word, AccessKind::kLoad, 0, 0, nullptr, "mem/load");
  }
  return Access(word, AccessKind::kLoad, 0, 0, nullptr);
}

Task<void> Processor::Store(SimWord& word, std::uint64_t value) {
  ++stats_.mem_stores;
  if (machine_->trace_enabled(hmetrics::kTraceMemory)) {
    co_await TracedAccess(word, AccessKind::kStore, value, 0, nullptr, "mem/store");
  } else {
    co_await Access(word, AccessKind::kStore, value, 0, nullptr);
  }
}

void Processor::PostStore(SimWord& word, std::uint64_t value) {
  ++stats_.mem_stores;
  // Write-buffered, but the store still lands at the home module: classify
  // its locality by the same route Access would have taken.
  if (word.home == module()) {
    ++stats_.loc_local;
  } else if (machine_->station_of(module()) == machine_->station_of(word.home)) {
    ++stats_.loc_station;
  } else {
    ++stats_.loc_ring;
  }
  word.value = value;
  machine_->memory(word.home).Reserve(machine_->config().mem_service);
}

Task<std::uint64_t> Processor::FetchStore(SimWord& word, std::uint64_t value) {
  ++stats_.atomic_ops;
  if (machine_->trace_enabled(hmetrics::kTraceMemory)) {
    return TracedAccess(word, AccessKind::kSwap, value, 0, nullptr, "mem/swap");
  }
  return Access(word, AccessKind::kSwap, value, 0, nullptr);
}

Task<bool> Processor::CompareSwap(SimWord& word, std::uint64_t expected, std::uint64_t desired) {
  ++stats_.atomic_ops;
  bool ok = false;
  co_await Access(word, AccessKind::kCas, desired, expected, &ok);
  co_return ok;
}

Task<std::uint64_t> Processor::FetchAdd(SimWord& word, std::uint64_t delta) {
  ++stats_.atomic_ops;
  return Access(word, AccessKind::kFetchAdd, delta, 0, nullptr);
}

Task<std::uint64_t> Processor::TracedAccess(SimWord& word, AccessKind kind,
                                            std::uint64_t operand, std::uint64_t expected,
                                            bool* cas_ok, const char* name) {
  hmetrics::TraceSession* tr = machine_->trace();
  const auto span = tr->BeginSpan(hmetrics::kTraceMemory, name, id_, now());
  tr->AddArg(span, "home", std::to_string(word.home));
  const std::uint64_t old = co_await Access(word, kind, operand, expected, cas_ok);
  tr->EndSpan(span, now());
  co_return old;
}

Task<std::uint64_t> Processor::Access(SimWord& word, AccessKind kind, std::uint64_t operand,
                                      std::uint64_t expected, bool* cas_ok) {
  Machine& m = *machine_;
  const MachineConfig& cfg = m.config();
  const ModuleId target = word.home;
  const ModuleId source = module();
  Resource& mem = m.memory(target);

  if (cfg.cache_coherent) {
    co_return co_await CoherentAccess(word, kind, operand, expected, cas_ok);
  }

  const bool is_rmw =
      kind == AccessKind::kSwap || kind == AccessKind::kCas || kind == AccessKind::kFetchAdd;
  // An atomic read-modify-write is two memory accesses, and the module stays
  // locked from the fetch until the store half arrives back from the
  // processor -- for a remote access that includes a one-way trip across the
  // interconnect.  This is what makes remote test-and-set spinning so much
  // more expensive for the system than its visible latency suggests.
  const StationId src_station_pre = m.station_of(source);
  const StationId dst_station_pre = m.station_of(target);
  Tick rmw_gap = 0;
  if (target != source) {
    rmw_gap = (src_station_pre == dst_station_pre)
                  ? cfg.bus_request + cfg.bus_response + cfg.remote_pad
                  : 2 * (cfg.ring_bus_hold + cfg.ring_hold) + 2 * cfg.ring_bus_hold +
                        cfg.remote_pad;
  }
  const Tick mem_hold =
      is_rmw ? cfg.mem_service * cfg.atomic_accesses + rmw_gap : cfg.mem_service;
  // The processor observes the value once the fetch half of the access
  // completes; for an RMW the module remains busy through the store half.
  const Tick mem_visible = cfg.mem_service;

  // Applies the value operation.  Called at the module's ordering point
  // (reservation time): transactions are serviced in reservation order, so
  // reads and writes interleave exactly as the module would see them.
  auto apply = [&]() -> std::uint64_t {
    std::uint64_t old = word.value;
    switch (kind) {
      case AccessKind::kLoad:
        break;
      case AccessKind::kStore:
      case AccessKind::kSwap:
        word.value = operand;
        break;
      case AccessKind::kCas:
        if (old == expected) {
          word.value = operand;
          *cas_ok = true;
        } else {
          *cas_ok = false;
        }
        break;
      case AccessKind::kFetchAdd:
        word.value = old + operand;
        break;
    }
    return old;
  };

  if (target == source) {
    // Local access: memory module only, no bus or ring traffic.
    ++stats_.loc_local;
    std::uint64_t old = apply();
    co_await mem.UseOverlapped(mem_visible, mem_hold);
    co_return old;
  }

  const StationId src_station = m.station_of(source);
  const StationId dst_station = m.station_of(target);

  if (src_station == dst_station) {
    // On-station access: request over the bus, memory service, response over
    // the bus.
    ++stats_.loc_station;
    co_await m.bus(src_station).Use(cfg.bus_request);
    std::uint64_t old = apply();
    co_await mem.UseOverlapped(mem_visible, mem_hold);
    co_await m.bus(src_station).Use(cfg.bus_response);
    co_await engine().Delay(cfg.remote_pad);
    if (is_rmw) {
      m.engine().Spawn(TrailingStoreLegs(&m, src_station, dst_station));
    }
    co_return old;
  }

  // Cross-ring access: source bus -> ring -> destination bus -> memory and
  // back along the same path.
  ++stats_.loc_ring;
  co_await m.bus(src_station).Use(cfg.ring_bus_hold);
  co_await m.ring().Use(cfg.ring_hold);
  co_await m.bus(dst_station).Use(cfg.ring_bus_hold);
  std::uint64_t old = apply();
  co_await mem.UseOverlapped(mem_visible, mem_hold);
  co_await m.bus(dst_station).Use(cfg.ring_bus_hold);
  co_await m.ring().Use(cfg.ring_hold);
  co_await m.bus(src_station).Use(cfg.ring_bus_hold);
  co_await engine().Delay(cfg.remote_pad);
  if (is_rmw) {
    m.engine().Spawn(TrailingStoreLegs(&m, src_station, dst_station));
  }
  co_return old;
}

Task<std::uint64_t> Processor::CoherentAccess(SimWord& word, AccessKind kind,
                                              std::uint64_t operand, std::uint64_t expected,
                                              bool* cas_ok) {
  Machine& m = *machine_;
  const MachineConfig& cfg = m.config();
  const std::uint32_t me = 1u << id_;
  const bool is_rmw =
      kind == AccessKind::kSwap || kind == AccessKind::kCas || kind == AccessKind::kFetchAdd;
  const bool is_write = is_rmw || kind == AccessKind::kStore;

  auto apply = [&]() -> std::uint64_t {
    std::uint64_t old = word.value;
    switch (kind) {
      case AccessKind::kLoad:
        break;
      case AccessKind::kStore:
      case AccessKind::kSwap:
        word.value = operand;
        break;
      case AccessKind::kCas:
        if (old == expected) {
          word.value = operand;
          *cas_ok = true;
        } else {
          *cas_ok = false;
        }
        break;
      case AccessKind::kFetchAdd:
        word.value = old + operand;
        break;
    }
    return old;
  };

  // Cache hits: a shared line satisfies loads; an exclusively-owned line
  // satisfies everything, including cache-based atomics (the Section 5.2
  // primitives that "permit a lock to be acquired without going to memory").
  if (!is_write && (word.sharers & me) != 0) {
    ++stats_.loc_local;  // cache hit: no interconnect traffic
    std::uint64_t old = apply();
    co_await engine().Delay(cfg.cache_hit_cycles);
    co_return old;
  }
  if (is_write && word.owner == id_ && word.sharers == me) {
    ++stats_.loc_local;
    std::uint64_t old = apply();
    co_await engine().Delay(is_rmw ? cfg.cached_rmw_cycles : cfg.cache_hit_cycles);
    co_return old;
  }

  // Miss / ownership transfer: take the uncached path to the home module.
  // Writes that must invalidate other caches hold the module for an extra
  // service period (the directory's invalidation round).
  const StationId src_station = m.station_of(module());
  const StationId dst_station = m.station_of(word.home);
  Tick mem_hold = cfg.mem_service;
  if (is_write && (word.sharers & ~me) != 0) {
    mem_hold += cfg.mem_service;
  }
  std::uint64_t old;
  if (word.home == module()) {
    ++stats_.loc_local;
    old = apply();
    co_await m.memory(word.home).UseOverlapped(cfg.mem_service, mem_hold);
  } else if (src_station == dst_station) {
    ++stats_.loc_station;
    co_await m.bus(src_station).Use(cfg.bus_request);
    old = apply();
    co_await m.memory(word.home).UseOverlapped(cfg.mem_service, mem_hold);
    co_await m.bus(src_station).Use(cfg.bus_response);
    co_await engine().Delay(cfg.remote_pad);
  } else {
    ++stats_.loc_ring;
    co_await m.bus(src_station).Use(cfg.ring_bus_hold);
    co_await m.ring().Use(cfg.ring_hold);
    co_await m.bus(dst_station).Use(cfg.ring_bus_hold);
    old = apply();
    co_await m.memory(word.home).UseOverlapped(cfg.mem_service, mem_hold);
    co_await m.bus(dst_station).Use(cfg.ring_bus_hold);
    co_await m.ring().Use(cfg.ring_hold);
    co_await m.bus(src_station).Use(cfg.ring_bus_hold);
    co_await engine().Delay(cfg.remote_pad);
  }
  if (is_write) {
    word.sharers = me;
    word.owner = id_;
  } else {
    word.sharers |= me;
    if (word.owner != id_) {
      word.owner = SimWord::kNoOwner;
    }
  }
  co_return old;
}

Machine::Machine(Engine* engine, const MachineConfig& config) : engine_(engine), config_(config) {
  const std::uint32_t nprocs = config_.num_processors();
  memories_.reserve(nprocs);
  for (std::uint32_t i = 0; i < nprocs; ++i) {
    memories_.push_back(std::make_unique<Resource>(engine_, "mem" + std::to_string(i)));
  }
  buses_.reserve(config_.stations);
  for (std::uint32_t s = 0; s < config_.stations; ++s) {
    buses_.push_back(std::make_unique<Resource>(engine_, "bus" + std::to_string(s)));
  }
  ring_ = std::make_unique<Resource>(engine_, "ring");
  processors_.reserve(nprocs);
  for (std::uint32_t i = 0; i < nprocs; ++i) {
    processors_.push_back(std::make_unique<Processor>(this, i));
  }
}

SimWord* Machine::AllocWords(ModuleId module, std::size_t n) {
  if (n > chunk_left_) {
    const std::size_t words = std::max(n, next_chunk_words_);
    next_chunk_words_ = std::min(2 * next_chunk_words_, kMaxChunkWords);
    chunks_.emplace_back(static_cast<SimWord*>(::operator new(words * sizeof(SimWord))));
    chunk_next_ = chunks_.back().get();
    chunk_left_ = words;
  }
  SimWord* run = chunk_next_;
  chunk_next_ += n;
  chunk_left_ -= n;
  std::uninitialized_fill_n(run, n, SimWord{0, module});
  return run;
}

Tick Machine::total_bus_wait() const {
  Tick total = 0;
  for (const auto& bus : buses_) {
    total += bus->total_wait();
  }
  return total;
}

Tick Machine::total_memory_wait() const {
  Tick total = 0;
  for (const auto& mem : memories_) {
    total += mem->total_wait();
  }
  return total;
}

void Machine::ResetResourceStats() {
  for (auto& mem : memories_) {
    mem->ResetStats();
  }
  for (auto& bus : buses_) {
    bus->ResetStats();
  }
  ring_->ResetStats();
}

}  // namespace hsim
