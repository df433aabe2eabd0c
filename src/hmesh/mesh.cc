#include "src/hmesh/mesh.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/hflight/flight.h"
#include "src/hmetrics/registry.h"
#include "src/hprof/lock_site.h"

namespace hmesh {

namespace {
constexpr std::uint32_t kStripeWords = 4;
}  // namespace

const char* MeshOpName(MeshOp op) {
  switch (op) {
    case MeshOp::kGet:
      return "get";
    case MeshOp::kPut:
      return "put";
    case MeshOp::kUpdate:
      return "update";
    case MeshOp::kSyncPull:
      return "sync_pull";
    case MeshOp::kSyncOps:
      return "sync_ops";
  }
  return "?";
}

Mesh::Mesh(hsim::Engine* engine, const MeshConfig& config)
    : engine_(engine), config_(config), ring_(config.vnodes, config.seed) {
  nodes_.reserve(config_.machines);
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    auto node = std::make_unique<Node>(config_.dedup_window);
    node->store.resize(config_.keys());
    node->machine = std::make_unique<hsim::Machine>(engine_, config_.member);
    node->store_service = std::make_unique<hsim::Resource>(
        engine_, "mesh.store" + std::to_string(m));
    for (std::uint32_t w = 0; w < kStripeWords; ++w) {
      node->store_words.push_back(
          &node->machine->AllocWord(w % config_.member.num_processors()));
    }
    node->windows.resize(config_.machines * config_.lanes);
    for (std::uint32_t lane = config_.lanes; lane-- > 0;) {
      node->free_lanes.push_back(lane);
    }
    nodes_.push_back(std::move(node));
    ring_.AddMachine(m);
  }
  RebuildHolders();
  channels_.resize(config_.machines * config_.lanes);
  traffic_.assign(std::size_t{config_.machines} * config_.machines, 0);
}

Mesh::~Mesh() = default;

void Mesh::Start() {
  // Seed every key on its holders directly (the preload is host-side setup,
  // not measured traffic): version 1, writer op 0 (excluded from the ledger).
  for (std::uint64_t key = 0; key < config_.keys(); ++key) {
    for (std::uint32_t m : holders_->Of(key)) {
      Slot& slot = nodes_[m]->store[key];
      slot.entry = Entry{key * 7 + 1, 1, 0};
      slot.present = true;
    }
  }
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    engine_->Spawn(ServerLoop(m, nodes_[m]->incarnation));
  }
}

void Mesh::Shutdown() { stopped_ = true; }

bool Mesh::Quiescent() const {
  for (const hsim::CallSlot<MeshPacket>& ch : channels_) {
    if (ch.open()) {
      return false;
    }
  }
  for (const auto& node : nodes_) {
    if (!node->inbox.empty() || node->writes_in_flight != 0) {
      return false;
    }
  }
  return true;
}

// --- routing ------------------------------------------------------------------

std::uint32_t Mesh::HolderCount(std::uint64_t key) const {
  const bool hot = key / config_.machines < config_.hot_ranks;
  return hot ? static_cast<std::uint32_t>(ring_.num_machines()) : config_.replicas;
}

std::vector<std::uint32_t> Mesh::HoldersOf(std::uint64_t key) const {
  return ring_.ReplicaSet(key, HolderCount(key));
}

void Mesh::CheckKey(std::uint64_t key) const {
  if (key >= config_.keys()) {
    std::fprintf(stderr, "hmesh: key %llu is outside the keyspace [0, %llu)\n",
                 static_cast<unsigned long long>(key),
                 static_cast<unsigned long long>(config_.keys()));
    std::abort();
  }
}

void Mesh::RebuildHolders() {
  auto table = std::make_shared<HolderTable>();
  table->stride = config_.machines;
  table->count.resize(config_.keys());
  table->machines.resize(config_.keys() * table->stride);
  for (std::uint64_t key = 0; key < config_.keys(); ++key) {
    table->count[key] = static_cast<std::uint32_t>(ring_.ReplicaSetInto(
        key, HolderCount(key), table->machines.data() + key * table->stride));
  }
  holders_ = std::move(table);
}

void Mesh::RingChanged() {
  ++epoch_;
  RebuildHolders();
}

bool Mesh::HoldsLocally(std::uint32_t m, std::uint64_t key) const {
  CheckKey(key);
  const Node& node = *nodes_[m];
  // Policy membership is not possession: after a failover the ring can make
  // this machine a *new* replica for a key whose data it has never received
  // (it only catches up on the next write).  Local reads require the data.
  if (node.state != NodeState::kUp || !node.store[key].present) {
    return false;
  }
  // Holders are ring members, so this also answers "is m in the ring".
  const std::span<const std::uint32_t> holders = holders_->Of(key);
  return std::find(holders.begin(), holders.end(), m) != holders.end();
}

// --- transport ----------------------------------------------------------------

void Mesh::SendPacket(const MeshPacket& packet, Tick now) {
  ++traffic_[packet.src * config_.machines + packet.dst];
  hsim::RouteSend(fault_plan_.get(), packet, packet.src, packet.dst, now, config_.net_transit,
                  [&](Tick delay) { engine_->Spawn(DeliverAfter(packet, delay)); });
}

hsim::Task<void> Mesh::DeliverAfter(MeshPacket packet, Tick delay) {
  co_await engine_->Delay(delay);
  DeliverNow(packet);
}

void Mesh::DeliverNow(const MeshPacket& packet) {
  if (packet.is_reply) {
    // Replies route straight to the initiating channel; the channel id names
    // the source machine, whose death voids all its pending calls.
    const std::uint32_t src_machine = packet.channel / config_.lanes;
    if (nodes_[src_machine]->state != NodeState::kDown &&
        !channels_[packet.channel].Offer(packet)) {
      ++stale_replies_;
    }
    return;
  }
  if (nodes_[packet.dst]->state != NodeState::kDown) {
    nodes_[packet.dst]->inbox.push_back(packet);
  }
}

hsim::Task<CallOutcome> Mesh::Call(hsim::Processor& p, std::uint32_t src, std::uint32_t lane,
                                   std::uint32_t dst, MeshPacket packet,
                                   hflight::FlightRecord* rec) {
  Node& node = *nodes_[src];
  const std::uint64_t inc = node.incarnation;
  hsim::CallSlot<MeshPacket>& ch = channels_[src * config_.lanes + lane];
  packet.is_reply = false;
  packet.channel = src * config_.lanes + lane;
  packet.seq = ch.Begin();
  packet.src = src;
  packet.dst = dst;

  CallOutcome out;
  std::uint32_t retransmits = 0;
  int consecutive_timeouts = 0;
  Tick timeout = config_.net_timeout;
  const Tick call_begin = p.now();
  co_await p.Compute(config_.net_send);
  if (node.incarnation != inc) {
    co_return out;  // crashed during marshal; Kill already reset the channel
  }
  if (rec != nullptr) {
    packet.flight_id = rec->id;
  }
  packet.flight_send = p.now();
  ++node.counters.rpcs_out;
  SendPacket(packet, p.now());
  Tick deadline = p.now() + timeout;
  while (!ch.done()) {
    co_await p.BackoffDelay(config_.net_poll);
    if (node.incarnation != inc) {
      co_return out;  // crashed mid-call; channel was reset by Kill
    }
    if (!ring_.Contains(dst)) {
      // Failover committed: the destination is gone for good (a partitioned
      // but live machine stays in the ring and we keep retransmitting).
      ++node.counters.unavailable;
      ch.Close();
      out.status = MeshStatus::kUnavailable;
      co_return out;
    }
    if (p.now() >= deadline) {
      ++retransmits;
      ++node.counters.retransmits;
      if (++consecutive_timeouts >= config_.suspect_after) {
        Suspect(dst);
      }
      const Tick jitter = p.rng().NextBelow(timeout / 4 + 1);
      timeout = std::min(timeout * 2 + jitter, config_.net_timeout_cap);
      co_await p.Compute(config_.net_send);
      if (node.incarnation != inc) {
        co_return out;
      }
      packet.flight_send = p.now();
      SendPacket(packet, p.now());
      deadline = p.now() + timeout;
    }
  }
  co_await p.Compute(config_.net_recv);
  if (node.incarnation != inc) {
    co_return out;
  }
  out.status = ch.reply().status;
  out.value = ch.reply().value;
  out.version = ch.reply().version;
  out.sync = std::move(ch.reply().sync);
  out.retransmits = retransmits;
  if (rec != nullptr) {
    rec->AddRpc(p.now() - call_begin, retransmits);
  }
  ch.Close();
  co_return out;
}

// --- lanes --------------------------------------------------------------------

hsim::Task<std::uint32_t> Mesh::AcquireLane(hsim::Processor& p, std::uint32_t m,
                                            std::uint64_t inc) {
  Node& node = *nodes_[m];
  while (node.free_lanes.empty()) {
    co_await p.BackoffDelay(config_.net_poll);
    if (node.incarnation != inc) {
      co_return ~0u;
    }
  }
  const std::uint32_t lane = node.free_lanes.back();
  node.free_lanes.pop_back();
  co_return lane;
}

void Mesh::ReleaseLane(std::uint32_t m, std::uint32_t lane) {
  nodes_[m]->free_lanes.push_back(lane);
}

// --- store --------------------------------------------------------------------

hsim::Task<void> Mesh::StoreService(hsim::Processor& p, std::uint32_t m, std::uint64_t key,
                                    Tick service) {
  Node& node = *nodes_[m];
  const Tick requested = p.now();
  const Tick start = node.store_service->Reserve(service);
  if (node.site != nullptr) {
    node.site->RecordAcquire(p.id(), start - requested, start > requested);
  }
  co_await engine_->WaitUntil(start + service);
  if (node.site != nullptr) {
    node.site->RecordRelease(service);
  }
  // One touch of the key's stripe word: real traffic on the member machine's
  // interconnect, homed by key so hot keys contend at their module.
  co_await p.Load(*node.store_words[key % kStripeWords]);
}

void Mesh::ApplyEntry(Node& node, std::uint64_t key, std::uint64_t value,
                      std::uint64_t version, std::uint64_t op_id, bool log) {
  Slot& slot = SlotOf(node, key);
  slot.entry = Entry{value, version, op_id};
  slot.present = true;
  RecordAppliedOp(node, op_id, key, value, version);
  if (log && op_id != 0) {
    std::vector<std::uint64_t>& versions = op_versions_[op_id];
    if (std::find(versions.begin(), versions.end(), version) == versions.end()) {
      versions.push_back(version);
    }
  }
}

void Mesh::EndWrite(Node& node, std::uint64_t key) {
  node.store[key].write_busy = false;
  --node.writes_in_flight;
}

void Mesh::RecordAppliedOp(Node& node, std::uint64_t op_id, std::uint64_t key,
                           std::uint64_t value, std::uint64_t version) {
  if (op_id == 0) {
    return;  // preload / resync of seeded entries: nothing to dedup against
  }
  // A known op keeps its original record: version-gated repairs re-apply it.
  node.applied_ops.Insert(AppliedOps::Record{op_id, key, value, version});
}

// --- server -------------------------------------------------------------------

hsim::Task<void> Mesh::ServerLoop(std::uint32_t m, std::uint64_t inc) {
  Node& node = *nodes_[m];
  hsim::Processor& p = node.machine->processor(0);
  while (node.incarnation == inc && !stopped_) {
    if (node.inbox.empty()) {
      co_await p.BackoffDelay(config_.net_poll);
      continue;
    }
    MeshPacket packet = node.inbox.front();
    node.inbox.pop_front();
    hsim::DedupWindow<MeshPacket>& w = node.windows[packet.channel];
    const hsim::Admission admission = w.Admit(packet.seq);
    if (admission != hsim::Admission::kFresh) {
      ++node.counters.dup_requests;
      if (admission == hsim::Admission::kResend) {
        SendPacket(w.cached(), p.now());
      }
      continue;
    }
    if (packet.op == MeshOp::kPut) {
      // Puts broadcast to replicas and must not block the inbox (two owners
      // updating each other's replicas would deadlock their server loops).
      engine_->Spawn(HandlePutTask(m, inc, packet));
    } else {
      co_await HandleInline(p, m, inc, packet);
    }
  }
}

void Mesh::CompleteRequest(Node& node, const MeshPacket& request, MeshPacket reply,
                           Tick now) {
  reply.is_reply = true;
  reply.channel = request.channel;
  reply.seq = request.seq;
  reply.op = request.op;
  reply.src = request.dst;
  reply.dst = request.src;
  node.windows[request.channel].Complete(request.seq, reply);
  SendPacket(reply, now);
}

hsim::Task<void> Mesh::HandleInline(hsim::Processor& p, std::uint32_t m, std::uint64_t inc,
                                    MeshPacket packet) {
  Node& node = *nodes_[m];
  hflight::FlightRecord* rec = nullptr;
  if (flight_ != nullptr && packet.flight_id != 0) {
    rec = flight_->Open(m, packet.flight_send, packet.flight_id);
    rec->enqueue = packet.flight_send;
    rec->start = p.now();
    rec->exec = p.now();
  }
  MeshPacket reply;
  switch (packet.op) {
    case MeshOp::kGet: {
      // A syncing node refuses gets: its store may predate writes the mesh
      // already acked, and serving them would un-happen committed data.
      if (node.state != NodeState::kUp || ring_.OwnerOf(packet.key) != m) {
        ++node.counters.wrong_owner;
        reply.status = MeshStatus::kWrongOwner;
        break;
      }
      co_await StoreService(p, m, packet.key, config_.get_service);
      if (node.incarnation != inc) {
        co_return;
      }
      const Slot& slot = SlotOf(node, packet.key);
      if (!slot.present) {
        // An up owner stores every key it serves (seeded at Start, restored
        // by resync); a miss here is data loss.  Surface it -- a fabricated
        // value=0/version=0 would read as a legitimate stored zero.
        ++node.counters.get_misses;
        reply.status = MeshStatus::kNotFound;
        reply.key = packet.key;
        break;
      }
      ++node.counters.gets_served;
      reply.status = MeshStatus::kOk;
      reply.key = packet.key;
      reply.value = slot.entry.value;
      reply.version = slot.entry.version;
      break;
    }
    case MeshOp::kUpdate: {
      co_await StoreService(p, m, packet.key, config_.update_service);
      if (node.incarnation != inc) {
        co_return;
      }
      Slot& slot = SlotOf(node, packet.key);
      slot.present = true;  // an update creates the entry it gates against
      if (packet.version > slot.entry.version) {
        ApplyEntry(node, packet.key, packet.value, packet.version, packet.op_id,
                   /*log=*/true);
        ++node.counters.updates_applied;
      } else {
        ++node.counters.updates_stale;
      }
      reply.status = MeshStatus::kOk;
      reply.key = packet.key;
      reply.version = packet.version;
      break;
    }
    case MeshOp::kSyncPull: {
      // Serve every entry at or above the cursor (the *first* key to serve,
      // so the initial pull at cursor 0 includes key 0), up to a batch: the
      // recovering peer applies version-gated, so over-serving is harmless.
      reply.status = MeshStatus::kOk;
      Tick service = 0;
      for (std::uint64_t key = packet.cursor;
           key < node.store.size() && reply.sync.size() < config_.sync_batch; ++key) {
        const Slot& slot = node.store[key];
        if (slot.present) {
          reply.sync.push_back(
              SyncEntry{key, slot.entry.value, slot.entry.version, slot.entry.writer_op});
          service += config_.sync_entry_service;
        }
      }
      if (!reply.sync.empty()) {
        co_await StoreService(p, m, reply.sync.back().key, service);
        if (node.incarnation != inc) {
          co_return;
        }
        node.counters.sync_entries_out += reply.sync.size();
        reply.cursor = reply.sync.back().key + 1;
      }
      break;
    }
    case MeshOp::kSyncOps: {
      // Same cursor discipline over the dedup table: op id -> record, so a
      // rejoined owner recognises retries of puts it never saw (the store's
      // per-key writer_op only carries the *last* writer of each key).  The
      // table is in insertion order, so the batch is sorted out of it here:
      // only recovery asks, for at most dedup_window records.
      reply.status = MeshStatus::kOk;
      node.applied_ops.ForEach([&](const AppliedOps::Record& r) {
        if (r.op_id >= packet.cursor) {
          reply.sync.push_back(SyncEntry{r.key, r.value, r.version, r.op_id});
        }
      });
      const std::size_t n = std::min<std::size_t>(reply.sync.size(), config_.sync_batch);
      std::partial_sort(reply.sync.begin(), reply.sync.begin() + n, reply.sync.end(),
                        [](const SyncEntry& a, const SyncEntry& b) {
                          return a.writer_op < b.writer_op;
                        });
      reply.sync.resize(n);
      const Tick service = n * config_.sync_entry_service;
      if (!reply.sync.empty()) {
        co_await StoreService(p, m, reply.sync.back().key, service);
        if (node.incarnation != inc) {
          co_return;
        }
        node.counters.sync_ops_out += reply.sync.size();
        reply.cursor = reply.sync.back().writer_op + 1;
      }
      break;
    }
    case MeshOp::kPut:
      assert(false && "puts are handled by HandlePutTask");
      break;
  }
  if (rec != nullptr) {
    rec->done = p.now();
    flight_->Close(rec, hflight::Fate::kOk, p.now());
  }
  CompleteRequest(node, packet, std::move(reply), p.now());
}

hsim::Task<void> Mesh::HandlePutTask(std::uint32_t m, std::uint64_t inc, MeshPacket packet) {
  Node& node = *nodes_[m];
  hsim::Processor& p = node.machine->processor(0);
  hflight::FlightRecord* rec = nullptr;
  if (flight_ != nullptr && packet.flight_id != 0) {
    rec = flight_->Open(m, packet.flight_send, packet.flight_id);
    rec->enqueue = packet.flight_send;
    rec->start = p.now();
    rec->exec = p.now();
  }
  MeshPacket reply;
  if (node.state != NodeState::kUp || ring_.OwnerOf(packet.key) != m) {
    // Refuse puts while syncing: a version assigned off a half-synced store
    // could collide with one the mesh already handed out.
    ++node.counters.wrong_owner;
    reply.status = MeshStatus::kWrongOwner;
  } else {
    const PutResult r = co_await ApplyPut(p, m, inc, packet.key, packet.value, packet.op_id,
                                          rec);
    if (node.incarnation != inc) {
      co_return;  // crashed mid-put: no reply, the client retries elsewhere
    }
    if (r.status == MeshStatus::kUnavailable) {
      co_return;  // shutting down mid-broadcast; drop silently
    }
    reply.status = r.status;
    reply.key = packet.key;
    reply.version = r.version;
  }
  if (rec != nullptr) {
    rec->done = p.now();
    flight_->Close(rec, hflight::Fate::kOk, p.now());
  }
  CompleteRequest(node, packet, std::move(reply), p.now());
}

hsim::Task<PutResult> Mesh::ApplyPut(hsim::Processor& p, std::uint32_t m, std::uint64_t inc,
                                     std::uint64_t key, std::uint64_t value,
                                     std::uint64_t op_id, hflight::FlightRecord* rec) {
  Node& node = *nodes_[m];
  PutResult result;
  // Serialize writers per key: versions are assigned under this flag.
  while (SlotOf(node, key).write_busy) {
    co_await p.BackoffDelay(config_.net_poll);
    if (node.incarnation != inc) {
      co_return result;
    }
  }
  SlotOf(node, key).write_busy = true;
  ++node.writes_in_flight;
  const AppliedOps::Record* dedup = op_id != 0 ? node.applied_ops.Find(op_id) : nullptr;
  if (dedup != nullptr) {
    // A retry of an op this node already applied: the original owner died
    // after replicating here but before acking the client.  The record lives
    // in the per-node applied-op table, not the store's per-key writer slot
    // -- a later write to the same key must not erase it, or the retry would
    // re-execute and be applied at two distinct versions.  The owner may
    // also have died before reaching the *other* holders, so before acking
    // we repair -- re-broadcast the recorded version (idempotent: every
    // replica applies version-gated).  Dedup hits only happen on
    // owner-failover retries, so the repair traffic is off the hot path.
    const AppliedOps::Record recorded = *dedup;  // copy: the table can move under awaits
    ++node.counters.put_dedups;
    // Holds the table: the loop walks the holders it started with.
    const std::shared_ptr<const HolderTable> table = holders_;
    for (std::uint32_t t : table->Of(key)) {
      if (t == m) {
        continue;
      }
      MeshPacket repair;
      repair.op = MeshOp::kUpdate;
      repair.key = key;
      repair.value = recorded.value;
      repair.version = recorded.version;
      repair.op_id = op_id;
      const std::uint32_t lane = co_await AcquireLane(p, m, inc);
      if (lane == ~0u) {
        co_return result;
      }
      co_await Call(p, m, lane, t, repair, rec);
      if (node.incarnation != inc) {
        co_return result;
      }
      ReleaseLane(m, lane);
    }
    EndWrite(node, key);
    result.status = MeshStatus::kOk;
    result.version = recorded.version;
    co_return result;
  }
  const Slot& cur = SlotOf(node, key);
  const std::uint64_t version = (cur.present ? cur.entry.version : 0) + 1;

  // Broadcast before the local apply, failover owner strictly first: if this
  // machine dies anywhere in here, either no replica has the op (it is as if
  // it never ran) or the failover owner does (the retry dedups there) --
  // never a state where the op must re-execute after a replica applied it.
  const std::shared_ptr<const HolderTable> table = holders_;
  // Shared fan-out state: heap-owned so spawned subtasks can finish safely
  // even if this frame returns early on a crash of machine m.
  struct Fanout {
    std::uint32_t pending = 0;
    std::uint32_t abandoned = 0;
  };
  auto fan = std::make_shared<Fanout>();
  bool first = true;
  for (std::uint32_t t : table->Of(key)) {
    if (t == m) {
      continue;
    }
    MeshPacket update;
    update.op = MeshOp::kUpdate;
    update.key = key;
    update.value = value;
    update.version = version;
    update.op_id = op_id;
    if (first) {
      first = false;
      const std::uint32_t lane = co_await AcquireLane(p, m, inc);
      if (lane == ~0u) {
        co_return result;
      }
      co_await Call(p, m, lane, t, update, rec);
      if (node.incarnation != inc) {
        co_return result;  // lane was reset by Kill; nothing to release
      }
      ReleaseLane(m, lane);
    } else {
      // Remaining holders in parallel, each on its own lane.
      ++fan->pending;
      engine_->Spawn([](Mesh* mesh, std::uint32_t src, std::uint64_t my_inc,
                        std::uint32_t dst, MeshPacket pkt,
                        std::shared_ptr<Fanout> state) -> hsim::Task<void> {
        hsim::Processor& pp = mesh->nodes_[src]->machine->processor(0);
        const std::uint32_t lane = co_await mesh->AcquireLane(pp, src, my_inc);
        if (lane == ~0u) {
          ++state->abandoned;
          co_return;
        }
        co_await mesh->Call(pp, src, lane, dst, pkt, nullptr);
        if (mesh->nodes_[src]->incarnation != my_inc) {
          ++state->abandoned;
          co_return;
        }
        mesh->ReleaseLane(src, lane);
        --state->pending;
      }(this, m, inc, t, update, fan));
    }
  }
  while (fan->pending > 0 && fan->abandoned == 0) {
    co_await p.BackoffDelay(config_.net_poll);
    if (node.incarnation != inc) {
      co_return result;
    }
  }
  if (fan->abandoned != 0 || node.incarnation != inc) {
    co_return result;
  }

  co_await StoreService(p, m, key, config_.put_service);
  if (node.incarnation != inc) {
    co_return result;
  }
  ApplyEntry(node, key, value, version, op_id, /*log=*/true);
  ++node.counters.puts_served;
  EndWrite(node, key);
  result.status = MeshStatus::kOk;
  result.version = version;
  co_return result;
}

// --- client operations --------------------------------------------------------

hsim::Task<MeshStatus> Mesh::ClientRead(hsim::Processor& p, std::uint32_t m,
                                        std::uint64_t key, std::uint64_t* value,
                                        bool* served_locally, hflight::FlightRecord* rec) {
  CheckKey(key);
  Node& node = *nodes_[m];
  const std::uint64_t inc = node.incarnation;
  while (true) {
    if (node.incarnation != inc) {
      co_return MeshStatus::kUnavailable;
    }
    if (HoldsLocally(m, key)) {
      co_await StoreService(p, m, key, config_.get_service);
      if (node.incarnation != inc) {
        co_return MeshStatus::kUnavailable;
      }
      const Slot& slot = node.store[key];
      *value = slot.present ? slot.entry.value : 0;
      ++node.counters.local_reads;
      if (served_locally != nullptr) {
        *served_locally = true;
      }
      co_return MeshStatus::kOk;
    }
    const std::uint32_t dst = ring_.OwnerOf(key);
    if (dst == m) {
      // Own machine is the owner but not serving (syncing after recovery);
      // wait for the catch-up round to flip it kUp.
      co_await p.BackoffDelay(config_.net_poll);
      continue;
    }
    const std::uint32_t lane = co_await AcquireLane(p, m, inc);
    if (lane == ~0u) {
      co_return MeshStatus::kUnavailable;
    }
    MeshPacket get;
    get.op = MeshOp::kGet;
    get.key = key;
    const CallOutcome out = co_await Call(p, m, lane, dst, get, rec);
    if (node.incarnation != inc) {
      co_return MeshStatus::kUnavailable;
    }
    ReleaseLane(m, lane);
    if (out.status == MeshStatus::kOk) {
      *value = out.value;
      ++node.counters.forwarded_reads;
      if (served_locally != nullptr) {
        *served_locally = false;
      }
      co_return MeshStatus::kOk;
    }
    // kWrongOwner / kUnavailable: membership moved under us; re-route.
    co_await p.BackoffDelay(config_.net_poll);
  }
}

hsim::Task<MeshStatus> Mesh::ClientWrite(hsim::Processor& p, std::uint32_t m,
                                         std::uint64_t key, std::uint64_t value,
                                         std::uint64_t op_id, std::uint64_t* version,
                                         hflight::FlightRecord* rec) {
  CheckKey(key);
  Node& node = *nodes_[m];
  const std::uint64_t inc = node.incarnation;
  while (true) {
    if (node.incarnation != inc) {
      co_return MeshStatus::kUnavailable;
    }
    const std::uint32_t dst = ring_.OwnerOf(key);
    if (dst == m && node.state != NodeState::kUp) {
      co_await p.BackoffDelay(config_.net_poll);
      continue;  // own store is syncing; wait for the catch-up round
    }
    if (dst == m) {
      const PutResult r = co_await ApplyPut(p, m, inc, key, value, op_id, rec);
      if (node.incarnation != inc) {
        co_return MeshStatus::kUnavailable;
      }
      if (r.status == MeshStatus::kOk) {
        *version = r.version;
        co_return MeshStatus::kOk;
      }
    } else {
      const std::uint32_t lane = co_await AcquireLane(p, m, inc);
      if (lane == ~0u) {
        co_return MeshStatus::kUnavailable;
      }
      MeshPacket put;
      put.op = MeshOp::kPut;
      put.key = key;
      put.value = value;
      put.op_id = op_id;
      const CallOutcome out = co_await Call(p, m, lane, dst, put, rec);
      if (node.incarnation != inc) {
        co_return MeshStatus::kUnavailable;
      }
      ReleaseLane(m, lane);
      if (out.status == MeshStatus::kOk) {
        *version = out.version;
        co_return MeshStatus::kOk;
      }
    }
    co_await p.BackoffDelay(config_.net_poll);
  }
}

// --- membership / chaos -------------------------------------------------------

void Mesh::Suspect(std::uint32_t m) {
  if (!ring_.Contains(m)) {
    return;
  }
  if (nodes_[m]->state != NodeState::kDown) {
    return;  // alive (possibly partitioned): never evicted on suspicion alone
  }
  ring_.RemoveMachine(m);
  RingChanged();
  ++failovers_;
  nodes_[m]->timeline.failover_at = engine_->now();
}

void Mesh::Kill(std::uint32_t m) {
  Node& node = *nodes_[m];
  node.state = NodeState::kDown;
  ++node.incarnation;  // fences every task of the old incarnation
  node.store.assign(node.store.size(), Slot{});  // also clears every write_busy
  node.writes_in_flight = 0;
  node.applied_ops.Clear();
  node.inbox.clear();
  node.windows.assign(node.windows.size(), {});
  // Void the node's outbound calls; each lane keeps its sequence counter, so
  // stale replies from the previous life can never match a post-recovery call.
  node.free_lanes.clear();
  for (std::uint32_t lane = config_.lanes; lane-- > 0;) {
    channels_[m * config_.lanes + lane].Close();
    node.free_lanes.push_back(lane);
  }
  node.timeline.killed_at = engine_->now();
}

void Mesh::Recover(std::uint32_t m) {
  Node& node = *nodes_[m];
  assert(node.state == NodeState::kDown && "recover requires a killed machine");
  node.state = NodeState::kSyncing;
  node.timeline.recover_at = engine_->now();
  engine_->Spawn(ServerLoop(m, node.incarnation));
  engine_->Spawn(ResyncTask(m, node.incarnation));
}

hsim::Task<void> Mesh::KillAt(Tick at, std::uint32_t m) {
  co_await engine_->WaitUntil(at);
  Kill(m);
}

hsim::Task<void> Mesh::RecoverAt(Tick at, std::uint32_t m) {
  co_await engine_->WaitUntil(at);
  Recover(m);
}

hsim::Task<bool> Mesh::PullFrom(hsim::Processor& p, std::uint32_t m, std::uint64_t inc,
                                std::uint32_t peer, MeshOp op) {
  Node& node = *nodes_[m];
  std::uint64_t cursor = 0;  // first key (kSyncPull) or op id (kSyncOps) to serve
  while (true) {
    if (node.incarnation != inc) {
      co_return false;
    }
    if (!ring_.Contains(peer)) {
      co_return true;  // peer died mid-sync; its keys are covered by other holders
    }
    const std::uint32_t lane = co_await AcquireLane(p, m, inc);
    if (lane == ~0u) {
      co_return false;
    }
    MeshPacket pull;
    pull.op = op;
    pull.cursor = cursor;
    const CallOutcome out = co_await Call(p, m, lane, peer, pull, nullptr);
    if (node.incarnation != inc) {
      co_return false;
    }
    ReleaseLane(m, lane);
    if (out.status != MeshStatus::kOk || out.sync.empty()) {
      co_return true;
    }
    Tick service = 0;
    for (const SyncEntry& e : out.sync) {
      service += config_.sync_entry_service;
      if (op == MeshOp::kSyncPull) {
        Slot& mine = SlotOf(node, e.key);
        mine.present = true;  // as kUpdate: the pull creates the entry it gates against
        if (e.version > mine.entry.version) {
          // Resync replicates an apply the ledger already recorded at its
          // origin; log=false keeps the exact-once ledger fresh-applies-only.
          ApplyEntry(node, e.key, e.value, e.version, e.writer_op, /*log=*/false);
          ++node.counters.sync_entries_in;
        }
      } else {
        RecordAppliedOp(node, e.writer_op, e.key, e.value, e.version);
        ++node.counters.sync_ops_in;
      }
    }
    co_await StoreService(p, m, out.sync.back().key, service);
    if (node.incarnation != inc) {
      co_return false;
    }
    cursor = (op == MeshOp::kSyncPull ? out.sync.back().key : out.sync.back().writer_op) + 1;
  }
}

hsim::Task<bool> Mesh::PullRound(hsim::Processor& p, std::uint32_t m, std::uint64_t inc) {
  // Pull everything every live peer holds -- store entries (version-gated on
  // apply) and the dedup table (so retries of puts the dead owner never saw
  // still dedup here after rejoin).  The union over peers covers every key
  // this machine will hold after rejoin (each key has at least one live
  // holder; the chaos model is single-failure).
  const std::vector<std::uint32_t> peers = ring_.members();
  for (std::uint32_t peer : peers) {
    if (peer == m) {
      continue;
    }
    if (!co_await PullFrom(p, m, inc, peer, MeshOp::kSyncPull)) {
      co_return false;
    }
    if (!co_await PullFrom(p, m, inc, peer, MeshOp::kSyncOps)) {
      co_return false;
    }
  }
  co_return true;
}

hsim::Task<void> Mesh::ResyncTask(std::uint32_t m, std::uint64_t inc) {
  Node& node = *nodes_[m];
  hsim::Processor& p = node.machine->processor(2);
  // Round 1: bulk state transfer while still outside the ring (no traffic is
  // routed here, so the pull window costs the mesh nothing but sync RPCs).
  if (!co_await PullRound(p, m, inc)) {
    co_return;
  }
  // Rejoin: ring add + kUp commit at one host instant, so every write
  // broadcast from now on includes this machine.
  ring_.AddMachine(m);
  RingChanged();
  node.state = NodeState::kUp;
  // Round 2: catch-up.  A write that committed at a surviving owner between
  // round 1 reading its store and the rejoin above is closed here; writes
  // after the rejoin reach us directly via broadcast.
  if (!co_await PullRound(p, m, inc)) {
    co_return;
  }
  node.timeline.synced_at = p.now();
  ++resyncs_;
}

// --- verification / metrics ---------------------------------------------------

const Mesh::Entry* Mesh::Lookup(std::uint32_t m, std::uint64_t key) const {
  CheckKey(key);
  const Slot& slot = nodes_[m]->store[key];
  return slot.present ? &slot.entry : nullptr;
}

std::uint64_t Mesh::Digest() const {
  std::uint64_t d = ring_.Digest() + HashRing::Mix(epoch_ * 31 + failovers_ * 7 + resyncs_);
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    const Node& node = *nodes_[m];
    for (std::uint64_t key = 0; key < node.store.size(); ++key) {
      const Slot& slot = node.store[key];
      if (slot.present) {
        const Entry& e = slot.entry;
        d += HashRing::Mix(key ^ e.value ^ (e.version << 32) ^ e.writer_op);
      }
    }
    node.applied_ops.ForEach([&](const AppliedOps::Record& rec) {
      d += HashRing::Mix(rec.op_id ^ (rec.key << 4) ^ (rec.value << 8) ^ (rec.version << 44));
    });
    const NodeCounters& c = node.counters;
    d += HashRing::Mix((std::uint64_t{m} << 48) ^ c.local_reads ^ (c.forwarded_reads << 8) ^
                       (c.gets_served << 16) ^ (c.puts_served << 24) ^
                       (c.updates_applied << 32) ^ (c.retransmits << 40) ^ c.dup_requests);
  }
  for (std::uint64_t t : traffic_) {
    d = d * 1099511628211ULL + t;
  }
  for (const auto& [op, versions] : op_versions_) {
    for (std::uint64_t v : versions) {
      d += HashRing::Mix(op ^ (v << 20));
    }
  }
  return d;
}

void Mesh::PublishCounters(hmetrics::Registry* registry) const {
  if (registry == nullptr) {
    return;
  }
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    const std::string prefix = "mesh.machine" + std::to_string(m) + ".";
    const NodeCounters& c = nodes_[m]->counters;
    registry->counter(prefix + "local_reads").Add(c.local_reads);
    registry->counter(prefix + "forwarded_reads").Add(c.forwarded_reads);
    registry->counter(prefix + "gets_served").Add(c.gets_served);
    registry->counter(prefix + "puts_served").Add(c.puts_served);
    registry->counter(prefix + "put_dedups").Add(c.put_dedups);
    registry->counter(prefix + "updates_applied").Add(c.updates_applied);
    registry->counter(prefix + "updates_stale").Add(c.updates_stale);
    registry->counter(prefix + "sync_entries_in").Add(c.sync_entries_in);
    registry->counter(prefix + "sync_entries_out").Add(c.sync_entries_out);
    registry->counter(prefix + "sync_ops_in").Add(c.sync_ops_in);
    registry->counter(prefix + "sync_ops_out").Add(c.sync_ops_out);
    registry->counter(prefix + "get_misses").Add(c.get_misses);
    registry->counter(prefix + "wrong_owner").Add(c.wrong_owner);
    registry->counter(prefix + "dup_requests").Add(c.dup_requests);
    registry->counter(prefix + "rpcs_out").Add(c.rpcs_out);
    registry->counter(prefix + "retransmits").Add(c.retransmits);
    registry->counter(prefix + "unavailable").Add(c.unavailable);
  }
  for (std::uint32_t s = 0; s < config_.machines; ++s) {
    for (std::uint32_t t = 0; t < config_.machines; ++t) {
      const std::uint64_t n = traffic(s, t);
      if (n != 0) {
        registry
            ->counter("mesh.traffic." + std::to_string(s) + "_" + std::to_string(t))
            .Add(n);
      }
    }
  }
  registry->counter("mesh.epochs").Add(epoch_);
  registry->counter("mesh.failovers").Add(failovers_);
  registry->counter("mesh.resyncs").Add(resyncs_);
  registry->counter("mesh.stale_replies").Add(stale_replies_);
  if (fault_plan_ != nullptr) {
    registry->counter("mesh.transport_dropped").Add(fault_plan_->counters().dropped());
    registry->counter("mesh.transport_partitioned")
        .Add(fault_plan_->counters().partitioned());
  }
}

void Mesh::AttachLockProfiler(hprof::SiteTable* sites) {
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    nodes_[m]->site =
        sites == nullptr
            ? nullptr
            : &sites->AddSite("machine" + std::to_string(m) + "/store",
                              config_.member.num_processors());
  }
}

}  // namespace hmesh
