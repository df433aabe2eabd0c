// hmesh: a multi-machine service mesh under one deterministic engine.
//
// The paper's hierarchical-clustering argument, taken one level up: N
// simulated HECTOR machines (hsim::Machine instances sharing one Engine) form
// a mesh.  A consistent-hash ring (ring.h) routes each key to an owner
// machine; read-mostly hot keys are replicated on every member and cold keys
// on a small replica set, maintained by the paper's broadcast-update protocol
// (Section 2.2's replicated read-mostly data): reads are served machine-local
// wherever a replica exists, writes go to the owner, which pushes a versioned
// update to every replica holder *before* applying and acking -- the ordering
// that keeps retried writes exactly-once across an owner crash (see below).
//
// Transport.  Machines exchange host-side MeshPackets over a latency-only
// interconnect (net_transit ticks each way) on the shared exact-once channel
// core (src/hsim/exact_once.h): one CallSlot per outbound lane, one
// DedupWindow per sending lane at each receiver.  Every leg consults the
// mesh's own hsim::FaultPlan with *machine ids* as the node ids, so
// FaultPlan::PartitionNode partitions a whole machine and chaos scenarios
// need no per-link plumbing.  The mesh's own retransmit policy: a jittered
// doubling timeout, suspicion after suspect_after consecutive timeouts, and
// abandoning a call once its destination leaves the ring.
//
// Membership.  A host-side directory (standing in for an external consensus
// service; the engine is single-threaded so it is trivially linearizable)
// tracks each member: kUp, kDown (crashed: store wiped, tasks fenced off by
// an incarnation counter), kSyncing (recovering).  Callers that time out
// suspect_after times in a row report the destination; the directory commits
// a failover -- ring removal, epoch bump -- only if the node is actually
// down, so a partitioned-but-alive machine is never evicted.  Recovery syncs
// in two rounds: a bulk pull of every live peer's entries (version-gated),
// then an atomic rejoin (ring add + kUp), then a catch-up round that closes
// the window in which a write could have committed without the rejoiner.
//
// Exact-once across owner death.  An owner applies a write in this order:
// dedup check against a bounded per-node table of recently applied ops
// (op id -> key/value/version, FIFO-evicted past dedup_window; a single
// per-key slot would be wiped by the next writer to the same key and let a
// late retry re-execute) -> broadcast to the *failover owner first* (the
// next distinct machine on the ring, which by construction already
// replicates the key), await its ack -> broadcast to the remaining holders
// in parallel -> apply locally -> ack the client.  If the owner dies
// anywhere before the ack, the client's retry lands on the failover owner,
// which either has the op recorded (dedup -> ack) or -- only possible when
// no replica got it -- re-executes it fresh.  Recovery transfers the dedup
// table alongside the store (kSyncOps next to kSyncPull) so a rejoined
// owner still recognises retries of ops it never saw.  The host-side apply
// ledger (op_versions) records every distinct version an op was applied at;
// the chaos gate is that every acked op maps to exactly one version.

#ifndef HMESH_MESH_H_
#define HMESH_MESH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hmesh/applied_ops.h"
#include "src/hmesh/ring.h"
#include "src/hsim/engine.h"
#include "src/hsim/exact_once.h"
#include "src/hsim/fault.h"
#include "src/hsim/machine.h"
#include "src/hsim/resource.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hflight {
class FlightRecorder;
struct FlightRecord;
}  // namespace hflight
namespace hmetrics {
class Registry;
}  // namespace hmetrics
namespace hprof {
class SiteTable;
class LockSiteStats;
}  // namespace hprof

namespace hmesh {

using hsim::Tick;

enum class MeshOp : std::uint8_t { kGet, kPut, kUpdate, kSyncPull, kSyncOps };
const char* MeshOpName(MeshOp op);

enum class MeshStatus : std::uint8_t {
  kPending,
  kOk,
  kWrongOwner,    // routed to a machine the current ring does not make owner
  kUnavailable,   // destination left the ring (failover committed) mid-call
  kNotFound,      // owner does not store the key: data loss, never a zero read
};

enum class NodeState : std::uint8_t { kUp, kDown, kSyncing };

struct MeshConfig {
  std::uint32_t machines = 4;
  std::uint32_t vnodes = 64;
  std::uint32_t replicas = 2;       // cold-key replica set size, owner included
  std::uint64_t hot_ranks = 16;     // zipf ranks replicated on every member
  std::uint64_t keys_per_machine = 32;  // keyspace = keys_per_machine * machines
  std::uint64_t seed = 0x5eedULL;
  hsim::MachineConfig member;       // per-member machine (default 1 station x 4)

  // Inter-machine transport timing (ticks; 16 ticks = 1 us).
  Tick net_send = 96;
  Tick net_transit = 320;           // one-way wire latency (20 us)
  Tick net_recv = 48;
  Tick net_poll = 48;               // reply/inbox poll granularity
  Tick net_timeout = hsim::UsToTicks(120);
  Tick net_timeout_cap = hsim::UsToTicks(1920);
  int suspect_after = 4;            // consecutive timeouts before reporting

  // Store service costs (ticks at the node's store resource).
  Tick get_service = 40;
  Tick put_service = 56;
  Tick update_service = 16;
  Tick sync_entry_service = 8;
  // Entries per kSyncPull/kSyncOps reply.  Recovery transfers the dedup
  // table as well as the store, so pulls are round-trip-bound: the batch is
  // sized to keep a full re-sync (two rounds over every peer) well inside
  // the chaos unavailability budget.
  std::uint32_t sync_batch = 64;
  // Applied-op dedup records retained per node (FIFO-evicted).  Bounds the
  // window in which a retried put is recognised after unrelated writes; far
  // larger than any plausible retry horizon at these timeouts.
  std::uint32_t dedup_window = 1024;

  // Host-side channel lanes per machine (bounds concurrent outbound calls).
  std::uint32_t lanes = 32;

  MeshConfig() {
    member.stations = 1;
    member.modules_per_station = 4;
  }

  // The keyspace is [0, keys()).  Every key a mesh is asked about must lie
  // in it: per-node stores are dense arrays over it, and a key outside it
  // aborts in every build type.
  std::uint64_t keys() const { return keys_per_machine * machines; }
};

struct SyncEntry {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::uint64_t version = 0;
  std::uint64_t writer_op = 0;
};

// Host-side wire format; never touches simulated memory (timing comes from
// the transit delay and the store resources at both ends).
struct MeshPacket {
  bool is_reply = false;
  std::uint32_t channel = 0;  // src * lanes + lane
  std::uint64_t seq = 0;      // per-channel, monotonic for the mesh's lifetime
  MeshOp op = MeshOp::kGet;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::uint64_t version = 0;
  std::uint64_t op_id = 0;   // client-op id (put dedup across owner failover)
  std::uint64_t cursor = 0;  // kSyncPull/kSyncOps resume point: first key (or
                             // op id) to serve; replies carry last + 1
  MeshStatus status = MeshStatus::kPending;
  std::uint64_t flight_id = 0;    // causal parent for the handler-side record
  std::uint64_t flight_send = 0;  // initiator's send instant
  std::vector<SyncEntry> sync;    // kSyncPull reply batch
};

// Result of one mesh RPC as seen by the initiator.
struct CallOutcome {
  MeshStatus status = MeshStatus::kUnavailable;
  std::uint64_t value = 0;
  std::uint64_t version = 0;
  std::uint32_t retransmits = 0;
  std::vector<SyncEntry> sync;
};

struct PutResult {
  MeshStatus status = MeshStatus::kUnavailable;
  std::uint64_t version = 0;
};

class Mesh {
 public:
  Mesh(hsim::Engine* engine, const MeshConfig& config);
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;
  ~Mesh();

  hsim::Engine& engine() { return *engine_; }
  const MeshConfig& config() const { return config_; }
  const HashRing& ring() const { return ring_; }
  std::uint64_t epoch() const { return epoch_; }
  hsim::Machine& machine(std::uint32_t m) { return *nodes_[m]->machine; }
  NodeState node_state(std::uint32_t m) const { return nodes_[m]->state; }

  // Seeds every key on its current holders (version 1) and spawns the server
  // loops.  Call once before driving load.
  void Start();
  // Stops the server loops; in-flight handler tasks drain first (see
  // Quiescent).
  void Shutdown();
  // True when no channel is busy, no inbox holds packets, and no write is in
  // flight -- the point at which Shutdown leaves nothing behind.
  bool Quiescent() const;

  // --- fault injection / chaos ----------------------------------------------
  // Installs the mesh-level fault plan (node ids = machine ids).
  void set_fault_plan(const hsim::FaultConfig& config) {
    fault_plan_ = std::make_unique<hsim::FaultPlan>(config);
  }
  hsim::FaultPlan* fault_plan() { return fault_plan_.get(); }

  // Crashes machine m at the current instant: store wiped, inbox dropped,
  // every task of the old incarnation fenced off.  The ring does NOT change
  // here -- failover commits when a caller's timeouts report the death
  // (Suspect), which is what the chaos gate's detection window measures.
  void Kill(std::uint32_t m);
  // Begins recovery of a killed machine: server restarts, the resync task
  // pulls state from live peers, then the machine rejoins the ring.
  void Recover(std::uint32_t m);
  // Schedulable wrappers (host tasks; spawn on the engine).
  hsim::Task<void> KillAt(Tick at, std::uint32_t m);
  hsim::Task<void> RecoverAt(Tick at, std::uint32_t m);

  // Caller-side failure report: commits failover iff m is actually down.
  void Suspect(std::uint32_t m);

  // --- routing ----------------------------------------------------------------
  bool HoldsLocally(std::uint32_t m, std::uint64_t key) const;
  // The key's holders under the current ring, owner first: a fresh ring walk
  // on every call.  The mesh itself reads the same sets from a table built
  // once per ring epoch (CachedHoldersOf).
  std::vector<std::uint32_t> HoldersOf(std::uint64_t key) const;
  std::span<const std::uint32_t> CachedHoldersOf(std::uint64_t key) const {
    CheckKey(key);
    return holders_->Of(key);
  }

  // --- client operations ------------------------------------------------------
  // Run on a processor of machine m; retry internally across kWrongOwner /
  // kUnavailable (re-routing via the current ring) until served.  `rec` is an
  // optional flight record to charge rpc time to (may be null).
  hsim::Task<MeshStatus> ClientRead(hsim::Processor& p, std::uint32_t m, std::uint64_t key,
                                    std::uint64_t* value, bool* served_locally,
                                    hflight::FlightRecord* rec);
  hsim::Task<MeshStatus> ClientWrite(hsim::Processor& p, std::uint32_t m, std::uint64_t key,
                                     std::uint64_t value, std::uint64_t op_id,
                                     std::uint64_t* version, hflight::FlightRecord* rec);

  // --- verification ----------------------------------------------------------
  struct Entry {
    std::uint64_t value = 0;
    std::uint64_t version = 0;
    std::uint64_t writer_op = 0;
  };
  // nullptr when machine m does not currently store `key`.
  const Entry* Lookup(std::uint32_t m, std::uint64_t key) const;
  // Machine m's dedup table.
  const AppliedOps& applied_ops(std::uint32_t m) const { return nodes_[m]->applied_ops; }
  // Host-side apply ledger: every distinct version each client op was applied
  // at, mesh-wide.  Exactly-once == every acked op maps to exactly one entry.
  using Ledger = std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>;
  const Ledger& op_versions() const { return op_versions_; }
  // Deterministic fold of ring, stores, counters, ledger, and traffic --
  // equal digests mean bit-identical replay.
  std::uint64_t Digest() const;

  // --- counters / metrics -----------------------------------------------------
  struct NodeCounters {
    std::uint64_t local_reads = 0;       // client reads served from the local replica
    std::uint64_t forwarded_reads = 0;   // client reads sent to a remote owner
    std::uint64_t gets_served = 0;       // owner-side gets executed
    std::uint64_t puts_served = 0;       // owner-side puts executed (fresh)
    std::uint64_t put_dedups = 0;        // retried puts answered from the writer-op record
    std::uint64_t updates_applied = 0;   // replica updates applied (fresh version)
    std::uint64_t updates_stale = 0;     // replica updates dropped by the version gate
    std::uint64_t sync_entries_out = 0;  // entries served to a recovering peer
    std::uint64_t sync_entries_in = 0;   // entries applied during resync
    std::uint64_t sync_ops_out = 0;      // dedup records served to a recovering peer
    std::uint64_t sync_ops_in = 0;       // dedup records received during resync
    std::uint64_t get_misses = 0;        // owner gets on a key it does not store
    std::uint64_t wrong_owner = 0;       // requests refused: not the owner
    std::uint64_t dup_requests = 0;      // dedup-window hits (cached resend or discard)
    std::uint64_t rpcs_out = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t unavailable = 0;       // calls abandoned: destination left the ring
  };
  const NodeCounters& node_counters(std::uint32_t m) const { return nodes_[m]->counters; }
  std::uint64_t traffic(std::uint32_t src, std::uint32_t dst) const {
    return traffic_[src * config_.machines + dst];
  }
  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t resyncs() const { return resyncs_; }
  std::uint64_t stale_replies() const { return stale_replies_; }

  struct Timeline {
    Tick killed_at = 0;
    Tick failover_at = 0;   // ring removal committed
    Tick recover_at = 0;    // Recover() called
    Tick synced_at = 0;     // catch-up round complete
  };
  const Timeline& timeline(std::uint32_t m) const { return nodes_[m]->timeline; }

  // Publishes per-machine counters ("mesh.machine<i>.<name>"), the
  // cross-machine traffic matrix ("mesh.traffic.<i>_<j>"), and mesh-wide
  // membership counters into an hmetrics registry.
  void PublishCounters(hmetrics::Registry* registry) const;
  // Attaches an hprof site per machine ("machine<i>/store"): the store
  // resource's queueing shows up as lock wait, its service as hold.
  void AttachLockProfiler(hprof::SiteTable* sites);
  // Attaches a flight recorder: client ops open root records, and every
  // cross-machine request executes under a causally linked child record
  // (parent = the initiator's record, begin = the send instant).
  void AttachFlightRecorder(hflight::FlightRecorder* recorder) { flight_ = recorder; }
  hflight::FlightRecorder* flight() { return flight_; }

 private:
  // One key's state on one node.  `present` is possession: a key the node
  // does not store has no entry for Lookup, Digest or a sync pull.
  struct Slot {
    Entry entry;
    bool present = false;
    bool write_busy = false;  // a put of this key is in flight here
  };

  struct Node {
    explicit Node(std::uint32_t dedup_window) : applied_ops(dedup_window) {}

    std::unique_ptr<hsim::Machine> machine;
    std::unique_ptr<hsim::Resource> store_service;
    std::vector<hsim::SimWord*> store_words;
    NodeState state = NodeState::kUp;
    std::uint64_t incarnation = 1;
    std::vector<Slot> store;  // dense over the keyspace, indexed by key
    // Op id -> dedup record.  Keyed by op id, not by key, so a later write
    // to the same key cannot erase the record (the writer_op slot in Entry
    // is a per-key convenience, not the dedup source of truth).
    AppliedOps applied_ops;
    std::uint32_t writes_in_flight = 0;  // keys with write_busy set
    std::deque<MeshPacket> inbox;
    std::vector<hsim::DedupWindow<MeshPacket>> windows;  // by sender channel id
    std::vector<std::uint32_t> free_lanes;
    NodeCounters counters;
    Timeline timeline;
    hprof::LockSiteStats* site = nullptr;
  };

  // Every key's holders under one ring, owner first, from one ring walk per
  // key.  Immutable once built: a coroutine that holds the table across
  // awaits keeps the holders it started with even if the ring moves meanwhile,
  // as the vector HoldersOf returns would.
  struct HolderTable {
    std::size_t stride = 0;             // machines: the largest holder set
    std::vector<std::uint32_t> count;   // per key
    std::vector<std::uint32_t> machines;  // key * stride + i
    std::span<const std::uint32_t> Of(std::uint64_t key) const {
      return {machines.data() + key * stride, count[key]};
    }
  };

  // Aborts unless key < keys().
  void CheckKey(std::uint64_t key) const;
  // How many holders the key's replica policy asks for: every member for a
  // hot key, config.replicas for a cold one.
  std::uint32_t HolderCount(std::uint64_t key) const;
  Slot& SlotOf(Node& node, std::uint64_t key) const {
    CheckKey(key);
    return node.store[key];
  }
  // Builds holders_ from ring_: at construction and on every ring change.
  void RebuildHolders();
  // After a ring change: a new epoch and a new holder table.
  void RingChanged();

  // --- transport --------------------------------------------------------------
  void SendPacket(const MeshPacket& packet, Tick now);
  hsim::Task<void> DeliverAfter(MeshPacket packet, Tick delay);
  void DeliverNow(const MeshPacket& packet);
  hsim::Task<CallOutcome> Call(hsim::Processor& p, std::uint32_t src, std::uint32_t lane,
                               std::uint32_t dst, MeshPacket packet,
                               hflight::FlightRecord* rec);

  // --- lanes ------------------------------------------------------------------
  hsim::Task<std::uint32_t> AcquireLane(hsim::Processor& p, std::uint32_t m,
                                        std::uint64_t inc);
  void ReleaseLane(std::uint32_t m, std::uint32_t lane);

  // --- server -----------------------------------------------------------------
  hsim::Task<void> ServerLoop(std::uint32_t m, std::uint64_t inc);
  hsim::Task<void> HandleInline(hsim::Processor& p, std::uint32_t m, std::uint64_t inc,
                                MeshPacket packet);
  hsim::Task<void> HandlePutTask(std::uint32_t m, std::uint64_t inc, MeshPacket packet);
  void CompleteRequest(Node& node, const MeshPacket& request, MeshPacket reply, Tick now);

  // --- store ------------------------------------------------------------------
  // Queues at the node's store resource for `service` ticks and touches the
  // key's stripe word (real interconnect traffic on the member machine).
  hsim::Task<void> StoreService(hsim::Processor& p, std::uint32_t m, std::uint64_t key,
                                Tick service);
  void ApplyEntry(Node& node, std::uint64_t key, std::uint64_t value, std::uint64_t version,
                  std::uint64_t op_id, bool log);
  // Clears the key's write_busy flag, set by ApplyPut.
  static void EndWrite(Node& node, std::uint64_t key);
  // Remembers op_id in the node's dedup table (no-op for op id 0 or an
  // already-recorded op); evicts the oldest records past dedup_window.
  static void RecordAppliedOp(Node& node, std::uint64_t op_id, std::uint64_t key,
                              std::uint64_t value, std::uint64_t version);
  hsim::Task<PutResult> ApplyPut(hsim::Processor& p, std::uint32_t m, std::uint64_t inc,
                                 std::uint64_t key, std::uint64_t value, std::uint64_t op_id,
                                 hflight::FlightRecord* rec);

  // --- recovery ---------------------------------------------------------------
  hsim::Task<void> ResyncTask(std::uint32_t m, std::uint64_t inc);
  hsim::Task<bool> PullRound(hsim::Processor& p, std::uint32_t m, std::uint64_t inc);
  // Cursor-batched pull of one peer's store (kSyncPull) or dedup table
  // (kSyncOps).  Returns false only when machine m died mid-pull.
  hsim::Task<bool> PullFrom(hsim::Processor& p, std::uint32_t m, std::uint64_t inc,
                            std::uint32_t peer, MeshOp op);

  hsim::Engine* engine_;
  MeshConfig config_;
  HashRing ring_;
  std::uint64_t epoch_ = 0;
  std::shared_ptr<const HolderTable> holders_;  // for ring_ as of epoch_
  std::uint64_t failovers_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t stale_replies_ = 0;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<hsim::CallSlot<MeshPacket>> channels_;  // machines x lanes
  std::vector<std::uint64_t> traffic_;     // machines x machines send counts
  Ledger op_versions_;
  std::unique_ptr<hsim::FaultPlan> fault_plan_;
  hflight::FlightRecorder* flight_ = nullptr;
};

}  // namespace hmesh

#endif  // HMESH_MESH_H_
