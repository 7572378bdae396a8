// Property tests for the queue substrate: randomized differential testing
// against the std::list reference models (multiple seeds and shapes), plus
// the deterministic edge cases the differential mix hits only by chance —
// move_up_one at the tail / head / singleton, history records larger than
// capacity, metadata footprint under churn.
#include <gtest/gtest.h>

#include "sim/audit/differential.hpp"
#include "sim/fifo_history.hpp"
#include "sim/lru_queue.hpp"

namespace cdn {
namespace {

using audit::DiffConfig;
using audit::DiffResult;

TEST(QueueDifferential, MatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xdeadbeefULL}) {
    DiffConfig cfg;
    cfg.seed = seed;
    cfg.num_ops = 20'000;
    const DiffResult r = run_queue_differential(cfg);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    EXPECT_EQ(r.ops_executed, cfg.num_ops);
  }
}

TEST(QueueDifferential, UnboundedAndTightCapacityShapes) {
  // Unbounded: no evictions, deep queues, heavy reordering.
  DiffConfig unbounded;
  unbounded.seed = 99;
  unbounded.capacity_bytes = 0;
  unbounded.id_space = 48;
  const DiffResult r1 = run_queue_differential(unbounded);
  EXPECT_TRUE(r1.ok) << r1.failure;

  // Tight: capacity of a handful of objects, constant eviction churn —
  // maximum slab free-list reuse.
  DiffConfig tight;
  tight.seed = 100;
  tight.capacity_bytes = 64;
  tight.max_size = 32;
  const DiffResult r2 = run_queue_differential(tight);
  EXPECT_TRUE(r2.ok) << r2.failure;
}

TEST(QueueDifferential, MultiListMatchesReferenceAcrossSeeds) {
  // The multi-list hosts' shape: inserts into and pops from any list, and
  // relinks across lists, against one RefLruModel per list.
  for (std::size_t lists = 2; lists <= LruQueue::kMaxLists; ++lists) {
    for (std::uint64_t seed : {5ULL, 77ULL}) {
      DiffConfig cfg;
      cfg.seed = seed;
      cfg.lists = lists;
      const DiffResult r = run_queue_differential(cfg);
      EXPECT_TRUE(r.ok) << lists << " lists, seed " << seed << ": "
                        << r.failure;
    }
  }
  DiffConfig tight;
  tight.seed = 101;
  tight.lists = LruQueue::kMaxLists;
  tight.capacity_bytes = 64;
  tight.max_size = 32;
  const DiffResult r = run_queue_differential(tight);
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(GhostDifferential, MatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed : {3ULL, 11ULL, 1234ULL}) {
    DiffConfig cfg;
    cfg.seed = seed;
    cfg.num_ops = 20'000;
    cfg.capacity_bytes = 256;
    const DiffResult r = run_ghost_differential(cfg);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
}

// ---- deterministic edge cases -------------------------------------------

TEST(MoveUpOneEdgeCases, TailNodeSwapsAndTailFollows) {
  LruQueue q;
  q.insert_mru(1, 1);  // order MRU->LRU: 2 1
  q.insert_mru(2, 1);
  q.move_up_one(1);  // tail node moves up -> 1 2
  EXPECT_EQ(q.mru_id(), 1u);
  EXPECT_EQ(q.lru_id(), 2u);  // old neighbor must become the tail
  q.move_up_one(2);  // and back
  EXPECT_EQ(q.mru_id(), 2u);
  EXPECT_EQ(q.lru_id(), 1u);
}

TEST(MoveUpOneEdgeCases, SingleElementIsNoop) {
  LruQueue q;
  q.insert_mru(7, 1);
  q.move_up_one(7);
  EXPECT_EQ(q.mru_id(), 7u);
  EXPECT_EQ(q.lru_id(), 7u);
  EXPECT_EQ(q.count(), 1u);
}

TEST(MoveUpOneEdgeCases, HeadNodeIsNoop) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  q.move_up_one(3);  // already MRU
  EXPECT_EQ(q.mru_id(), 3u);
  EXPECT_EQ(q.lru_id(), 1u);
}

TEST(MoveUpOneEdgeCases, AbsentIdIsNoop) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.move_up_one(999);
  EXPECT_EQ(q.count(), 1u);
  EXPECT_EQ(q.mru_id(), 1u);
}

TEST(GhostListEdgeCases, AddLargerThanCapacityRejected) {
  FifoHistory<1> g(100);
  g.add(0, 1, 101);
  EXPECT_FALSE(g.contains(0, 1));
  EXPECT_EQ(g.count(0), 0u);
  EXPECT_EQ(g.used_bytes(0), 0u);
}

TEST(GhostListEdgeCases, ReAddWithOversizeEvictsExistingRecord) {
  // Re-adding an id with size > capacity removes the old record and admits
  // nothing: the freshest judgement of the object is "untrackable".
  FifoHistory<1> g(100);
  g.add(0, 1, 10);
  ASSERT_TRUE(g.contains(0, 1));
  g.add(0, 1, 200);
  EXPECT_FALSE(g.contains(0, 1));
  EXPECT_EQ(g.used_bytes(0), 0u);
  // The rest of the list is untouched.
  g.add(0, 2, 10);
  g.add(0, 3, 200);
  EXPECT_TRUE(g.contains(0, 2));
  EXPECT_FALSE(g.contains(0, 3));
}

TEST(GhostListEdgeCases, AddExactlyCapacityEvictsEverythingElse) {
  FifoHistory<1> g(100);
  g.add(0, 1, 40);
  g.add(0, 2, 40);
  g.add(0, 3, 100);  // fits alone; FIFO-evicts 1 and 2
  EXPECT_TRUE(g.contains(0, 3));
  EXPECT_FALSE(g.contains(0, 1));
  EXPECT_FALSE(g.contains(0, 2));
  EXPECT_EQ(g.used_bytes(0), 100u);
}

TEST(LruQueueMetadata, FootprintDropsWhenEntriesErased) {
  // metadata_bytes() must track the live population, not the slab
  // high-water mark: free-listed nodes hold no object metadata. The old
  // slab-based accounting overstated the Fig. 9/11 reproduction after any
  // churn (a queue that once held N objects reported N forever).
  LruQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) q.insert_mru(i, 1);
  const std::uint64_t full = q.metadata_bytes();
  ASSERT_GT(full, 0u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_TRUE(q.erase(i));
  EXPECT_EQ(q.metadata_bytes() * 2, full);  // exactly half the entries live
  for (std::uint64_t i = 50; i < 100; ++i) EXPECT_TRUE(q.erase(i));
  EXPECT_EQ(q.metadata_bytes(), 0u);
  // Refilling reuses the slab and restores the same footprint.
  for (std::uint64_t i = 0; i < 100; ++i) q.insert_mru(i, 1);
  EXPECT_EQ(q.metadata_bytes(), full);
}

}  // namespace
}  // namespace cdn
