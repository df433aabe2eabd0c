// A node's applied-op dedup table: the most recent `capacity` records, op id
// -> key/value/version, evicted oldest first.
//
// The records live in a ring buffer in insertion order, which is also the
// eviction order.  An open-addressing index (linear probing, at most half
// full, backward-shift deletion) maps an op id to its ring slot.  Both are
// sized once, so inserting, evicting and finding allocate nothing.

#ifndef HMESH_APPLIED_OPS_H_
#define HMESH_APPLIED_OPS_H_

#include <cstdint>
#include <vector>

namespace hmesh {

class AppliedOps {
 public:
  struct Record {
    std::uint64_t op_id = 0;
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::uint64_t version = 0;
    bool operator==(const Record&) const = default;
  };

  explicit AppliedOps(std::uint32_t capacity) : ring_(capacity) {
    while ((std::size_t{1} << bits_) < 2 * std::size_t{capacity}) {
      ++bits_;
    }
    index_.assign(std::size_t{1} << bits_, kEmpty);
  }

  std::size_t size() const { return size_; }

  // nullptr when op_id is not recorded.
  const Record* Find(std::uint64_t op_id) const {
    for (std::size_t i = Home(op_id);; i = Next(i)) {
      if (index_[i] == kEmpty) {
        return nullptr;
      }
      if (ring_[index_[i]].op_id == op_id) {
        return &ring_[index_[i]];
      }
    }
  }

  // Records `rec` unless its op id is already recorded; past capacity the
  // oldest record goes.  A capacity of 0 records nothing.
  void Insert(const Record& rec) {
    if (ring_.empty() || Find(rec.op_id) != nullptr) {
      return;
    }
    if (size_ == ring_.size()) {
      Unindex(head_);
      head_ = (head_ + 1) % ring_.size();
      --size_;
    }
    const auto slot = static_cast<std::uint32_t>((head_ + size_) % ring_.size());
    ring_[slot] = rec;
    std::size_t i = Home(rec.op_id);
    while (index_[i] != kEmpty) {
      i = Next(i);
    }
    index_[i] = slot;
    ++size_;
  }

  void Clear() {
    index_.assign(index_.size(), kEmpty);
    head_ = 0;
    size_ = 0;
  }

  // Visits every record, oldest first.
  template <typename F>
  void ForEach(F&& f) const {
    for (std::size_t n = 0; n < size_; ++n) {
      f(ring_[(head_ + n) % ring_.size()]);
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~0u;

  std::size_t Home(std::uint64_t op_id) const {
    // Fibonacci hashing: client op ids are dense counters per machine.
    return static_cast<std::size_t>((op_id * 0x9e3779b97f4a7c15ULL) >> (64 - bits_));
  }
  std::size_t Next(std::size_t i) const { return (i + 1) & (index_.size() - 1); }

  // Drops ring slot `slot` from the index.  Backward-shift deletion: every
  // later entry of the probe run that may move into the hole does, so Find
  // never needs tombstones.
  void Unindex(std::uint32_t slot) {
    std::size_t hole = Home(ring_[slot].op_id);
    while (index_[hole] != slot) {
      hole = Next(hole);
    }
    for (std::size_t j = Next(hole); index_[j] != kEmpty; j = Next(j)) {
      const std::size_t home = Home(ring_[index_[j]].op_id);
      // The entry at j may fill the hole unless its home lies cyclically in
      // (hole, j].
      const bool stays = hole < j ? (home > hole && home <= j) : (home > hole || home <= j);
      if (!stays) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kEmpty;
  }

  std::vector<Record> ring_;  // capacity slots; live ones start at head_
  std::size_t head_ = 0;      // oldest record
  std::size_t size_ = 0;
  int bits_ = 1;
  std::vector<std::uint32_t> index_;  // ring slot per bucket, or kEmpty
};

}  // namespace hmesh

#endif  // HMESH_APPLIED_OPS_H_
