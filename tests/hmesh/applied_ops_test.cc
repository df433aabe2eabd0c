// The dedup table against a reference model: a std::map for the index and a
// std::deque for the eviction order, under seeded inserts that repeat op ids
// and evict far past capacity.

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/hmesh/applied_ops.h"
#include "src/hsim/random.h"

namespace hmesh {
namespace {

using Record = AppliedOps::Record;

// Client op-id layout: the machine in the high bits, a counter below.
std::uint64_t OpId(std::uint64_t machine, std::uint64_t index) {
  return (machine + 1) << 40 | index;
}

TEST(AppliedOpsTest, MatchesMapAndFifoModel) {
  for (const std::uint32_t capacity : {1u, 2u, 7u, 64u}) {
    AppliedOps table(capacity);
    std::map<std::uint64_t, Record> index;
    std::deque<std::uint64_t> fifo;
    hsim::Rng rng(capacity);
    // Op ids from a window three times the capacity, so ids repeat and most
    // inserts evict.
    const std::uint64_t span = 3 * std::uint64_t{capacity};
    const auto expect_same = [&](int step) {
      ASSERT_EQ(table.size(), fifo.size()) << step;
      std::vector<std::uint64_t> order;
      table.ForEach([&](const Record& r) { order.push_back(r.op_id); });
      ASSERT_EQ(order, std::vector<std::uint64_t>(fifo.begin(), fifo.end())) << step;
      for (std::uint64_t m = 0; m < 4; ++m) {
        for (std::uint64_t i = 0; i < span; ++i) {
          const Record* found = table.Find(OpId(m, i));
          const auto it = index.find(OpId(m, i));
          ASSERT_EQ(found != nullptr, it != index.end()) << step;
          if (found != nullptr) {
            EXPECT_EQ(found->key, it->second.key);
            EXPECT_EQ(found->value, it->second.value);
            EXPECT_EQ(found->version, it->second.version);
          }
        }
      }
    };
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = OpId(rng.NextBelow(4), rng.NextBelow(span));
      const Record rec{op, rng.NextBelow(100), rng.NextBelow(1000),
                       static_cast<std::uint64_t>(step)};
      table.Insert(rec);
      if (index.emplace(op, rec).second) {
        fifo.push_back(op);
        while (fifo.size() > capacity) {
          index.erase(fifo.front());
          fifo.pop_front();
        }
      }
      if (step % 97 == 0) {
        expect_same(step);
      }
    }
    expect_same(2000);
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.Find(fifo.back()), nullptr);
  }
}

TEST(AppliedOpsTest, KeepsTheFirstRecordOfAnOp) {
  AppliedOps table(4);
  table.Insert(Record{7, 1, 10, 2});
  table.Insert(Record{7, 1, 99, 5});  // a repair re-applying op 7
  ASSERT_NE(table.Find(7), nullptr);
  EXPECT_EQ(table.Find(7)->value, 10u);
  EXPECT_EQ(table.Find(7)->version, 2u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(AppliedOpsTest, ZeroCapacityRecordsNothing) {
  AppliedOps table(0);
  table.Insert(Record{7, 1, 10, 2});
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(7), nullptr);
}

}  // namespace
}  // namespace hmesh
