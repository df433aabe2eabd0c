// Consistent-hash ring: routes 64-bit keys to owner machines.
//
// The mesh's analogue of the kernel's "page id encodes its home cluster"
// rule, one level up: a key's home *machine* is a deterministic function of
// the key and the current membership, and adding or removing one machine
// moves only the keys whose arc changed hands -- O(1/N) of the keyspace per
// vnode-weighted share, not a full reshuffle.
//
// Each machine contributes `vnodes` points on a 2^64 ring, placed by a seeded
// splitmix64 hash of (seed, machine, vnode); a key is owned by the machine
// whose point is the first at or clockwise of hash(key).  The replica set for
// a key walks further clockwise collecting *distinct* machines, so replicas
// land on different failure domains by construction and the first replica is
// always the owner -- the failover owner after a crash is a machine that
// already holds the data.
//
// Determinism: placement depends only on (seed, membership); two rings built
// with the same seed and the same member set route identically regardless of
// join order.  Digest() folds the whole point table into one value for
// bit-identical-replay checks.

#ifndef HMESH_RING_H_
#define HMESH_RING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hmesh {

class HashRing {
 public:
  explicit HashRing(std::uint32_t vnodes = 64, std::uint64_t seed = 0x5eedULL)
      : vnodes_(vnodes), seed_(seed) {}

  std::uint32_t vnodes() const { return vnodes_; }
  std::uint64_t seed() const { return seed_; }
  std::size_t num_machines() const { return members_.size(); }
  const std::vector<std::uint32_t>& members() const { return members_; }

  bool Contains(std::uint32_t machine) const {
    return std::find(members_.begin(), members_.end(), machine) != members_.end();
  }

  void AddMachine(std::uint32_t machine) {
    if (Contains(machine)) {
      return;
    }
    members_.push_back(machine);
    std::sort(members_.begin(), members_.end());
    for (std::uint32_t v = 0; v < vnodes_; ++v) {
      points_.push_back(Point{PlaceVnode(machine, v), machine});
    }
    std::sort(points_.begin(), points_.end());
  }

  void RemoveMachine(std::uint32_t machine) {
    members_.erase(std::remove(members_.begin(), members_.end(), machine), members_.end());
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [machine](const Point& p) { return p.machine == machine; }),
                  points_.end());
  }

  // The machine owning `key`.  Ring must be non-empty.
  std::uint32_t OwnerOf(std::uint64_t key) const {
    return points_[FirstAtOrAfter(HashKey(key))].machine;
  }

  // The first `replicas` distinct machines clockwise from hash(key); the
  // owner is always element 0.  Returns fewer when the ring has fewer
  // members.
  std::vector<std::uint32_t> ReplicaSet(std::uint64_t key, std::uint32_t replicas) const {
    std::vector<std::uint32_t> out(std::min<std::size_t>(replicas, members_.size()));
    out.resize(ReplicaSetInto(key, replicas, out.data()));
    return out;
  }

  // ReplicaSet without the allocation: writes the set to `out`, which has
  // room for min(replicas, num_machines()) machines, and returns its size.
  std::size_t ReplicaSetInto(std::uint64_t key, std::uint32_t replicas,
                             std::uint32_t* out) const {
    if (points_.empty()) {
      return 0;
    }
    std::size_t n = 0;
    const std::size_t first = FirstAtOrAfter(HashKey(key));
    for (std::size_t walked = 0; walked < points_.size() && n < replicas; ++walked) {
      const std::uint32_t m = points_[(first + walked) % points_.size()].machine;
      if (std::find(out, out + n, m) == out + n) {
        out[n++] = m;
      }
    }
    return n;
  }

  // Order-independent fold of the point table: two rings with equal digests
  // place every vnode identically.
  std::uint64_t Digest() const {
    std::uint64_t d = Mix(seed_ ^ (std::uint64_t{vnodes_} << 32));
    for (const Point& p : points_) {
      d += Mix(p.position ^ (std::uint64_t{p.machine} << 1));
    }
    return d;
  }

  static std::uint64_t Mix(std::uint64_t x) {
    // splitmix64 finalizer.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t machine;
    bool operator<(const Point& o) const {
      return position != o.position ? position < o.position
                                    : machine < o.machine;  // total order: ties can't flap
    }
  };

  std::uint64_t PlaceVnode(std::uint32_t machine, std::uint32_t vnode) const {
    return Mix(seed_ ^ (std::uint64_t{machine} << 32) ^ vnode);
  }

  std::uint64_t HashKey(std::uint64_t key) const { return Mix(key ^ Mix(seed_)); }

  std::size_t FirstAtOrAfter(std::uint64_t position) const {
    auto it = std::lower_bound(points_.begin(), points_.end(), Point{position, 0});
    if (it == points_.end()) {
      it = points_.begin();  // wrap: the ring is circular
    }
    return static_cast<std::size_t>(it - points_.begin());
  }

  std::uint32_t vnodes_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> members_;
  std::vector<Point> points_;  // sorted by position
};

}  // namespace hmesh

#endif  // HMESH_RING_H_
