// Tests for the slab-backed LRU queue, including a randomized differential
// test against a straightforward std::list reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <vector>

#include "sim/lru_queue.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

TEST(LruQueue, InsertAndFind) {
  LruQueue q;
  q.insert_mru(1, 100);
  EXPECT_TRUE(q.contains(1));
  EXPECT_FALSE(q.contains(2));
  EXPECT_EQ(q.used_bytes(), 100u);
  EXPECT_EQ(q.count(), 1u);
  ASSERT_NE(q.find(1), nullptr);
  EXPECT_EQ(q.find(1)->size, 100u);
  EXPECT_EQ(q.find(2), nullptr);
}

TEST(LruQueue, InsertPositionMarks) {
  LruQueue q;
  EXPECT_EQ(q.insert_mru(1, 1).insert_pos, 1);
  EXPECT_EQ(q.insert_lru(2, 1).insert_pos, 0);
}

TEST(LruQueue, PopLruOrder) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  EXPECT_EQ(q.pop_lru().id, 1u);
  EXPECT_EQ(q.pop_lru().id, 2u);
  EXPECT_EQ(q.pop_lru().id, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(LruQueue, InsertLruGoesToTail) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_lru(2, 1);
  EXPECT_EQ(q.lru_id(), 2u);
  EXPECT_EQ(q.mru_id(), 1u);
}

TEST(LruQueue, TouchMovesToMru) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  q.touch_mru(1);
  EXPECT_EQ(q.mru_id(), 1u);
  EXPECT_EQ(q.pop_lru().id, 2u);
}

TEST(LruQueue, MoveUpOneSwapsWithNeighbor) {
  LruQueue q;
  q.insert_mru(1, 1);  // order MRU->LRU: 3 2 1
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  q.move_up_one(1);  // -> 3 1 2
  EXPECT_EQ(q.pop_lru().id, 2u);
  EXPECT_EQ(q.pop_lru().id, 1u);
  EXPECT_EQ(q.pop_lru().id, 3u);
}

TEST(LruQueue, MoveUpOneAtMruIsNoop) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.move_up_one(2);
  EXPECT_EQ(q.mru_id(), 2u);
}

TEST(LruQueue, DemoteLru) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.demote_lru(2);
  EXPECT_EQ(q.lru_id(), 2u);
}

TEST(LruQueue, EraseReturnsNode) {
  LruQueue q;
  q.insert_mru(1, 10);
  q.insert_mru(2, 20);
  LruQueue::Node out{};
  EXPECT_TRUE(q.erase(1, &out));
  EXPECT_EQ(out.id, 1u);
  EXPECT_EQ(out.size, 10u);
  EXPECT_EQ(q.used_bytes(), 20u);
  EXPECT_FALSE(q.erase(1));
}

TEST(LruQueue, SingleElementEdgeCases) {
  LruQueue q;
  q.insert_mru(9, 5);
  EXPECT_EQ(q.lru_id(), 9u);
  EXPECT_EQ(q.mru_id(), 9u);
  q.touch_mru(9);
  q.move_up_one(9);
  q.demote_lru(9);
  EXPECT_EQ(q.pop_lru().id, 9u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.used_bytes(), 0u);
}

TEST(LruQueue, SlabReuseAfterErase) {
  LruQueue q;
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 100; ++i) q.insert_mru(i, 1);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_TRUE(q.erase(i));
  }
  EXPECT_TRUE(q.empty());
  // Metadata tracks live entries (free-listed slab slots don't count), so
  // an emptied queue reports zero regardless of the slab high-water mark.
  EXPECT_EQ(q.metadata_bytes(), 0u);
}

TEST(LruQueue, SampleReturnsResidentObjects) {
  LruQueue q;
  Rng rng(5);
  for (std::uint64_t i = 0; i < 50; ++i) q.insert_mru(i, 1);
  std::set<std::uint64_t> seen;
  for (int s = 0; s < 2000; ++s) seen.insert(q.sample(rng).id);
  EXPECT_GT(seen.size(), 40u);  // near-uniform coverage
  for (auto id : seen) EXPECT_LT(id, 50u);
}

TEST(LruQueue, ForEachFromLruOrderAndEarlyStop) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  std::vector<std::uint64_t> order;
  q.for_each_from_lru([&](const LruQueue::Node& n) {
    order.push_back(n.id);
    return order.size() < 2;
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
}

TEST(LruQueue, HashedOpsMatchPlain) {
  // The hashed overloads with the caller-precomputed hash64(id) must be
  // structurally indistinguishable from the plain ops they shadow.
  LruQueue plain, hashed;
  Rng rng(77);
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t id = rng.below(48);
    const std::uint64_t h = hash64(id);
    switch (rng.below(4)) {
      case 0:
        if (!plain.contains(id)) {
          plain.insert_mru(id, 1 + id);
          hashed.insert_mru_hashed(id, 1 + id, h);
        }
        break;
      case 1:
        if (!plain.contains(id)) {
          plain.insert_lru(id, 1 + id);
          hashed.insert_lru_hashed(id, 1 + id, h);
        }
        break;
      case 2: {
        LruQueue::Node* a = plain.find(id);
        LruQueue::Node* b = hashed.find_hashed(id, h);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr) {
          ASSERT_EQ(a->id, b->id);
        }
        break;
      }
      case 3:
        ASSERT_EQ(plain.erase(id), hashed.erase_hashed(id, h));
        break;
    }
    ASSERT_EQ(plain.count(), hashed.count());
    ASSERT_EQ(plain.used_bytes(), hashed.used_bytes());
  }
  while (!plain.empty()) {
    ASSERT_EQ(plain.pop_lru().id, hashed.pop_lru().id);
  }
}

TEST(LruQueue, PopLruReportsVictimHash) {
  LruQueue q;
  q.insert_mru(7, 1);
  q.insert_mru(9, 1);
  std::uint64_t h = 0;
  EXPECT_EQ(q.pop_lru(&h).id, 7u);
  EXPECT_EQ(h, hash64(7));
  EXPECT_EQ(q.pop_lru(&h).id, 9u);
  EXPECT_EQ(h, hash64(9));
}

TEST(LruQueue, TailShadowTracksVictimAndInsertPos) {
  // lru_id()/lru_insert_pos() are served from the tail shadow; walk it
  // through every operation that moves the tail (the debug asserts inside
  // them additionally cross-check the shadow against the node).
  LruQueue q;
  q.insert_mru(1, 1);
  EXPECT_EQ(q.lru_id(), 1u);
  EXPECT_EQ(q.lru_insert_pos(), 1);
  q.insert_lru(2, 1);  // tail moves to the LRU-inserted node
  EXPECT_EQ(q.lru_id(), 2u);
  EXPECT_EQ(q.lru_insert_pos(), 0);
  q.touch_mru(2);  // unlink from tail: shadow falls back to node 1
  EXPECT_EQ(q.lru_id(), 1u);
  EXPECT_EQ(q.lru_insert_pos(), 1);
  LruQueue::Node* n = q.find(1);
  ASSERT_NE(n, nullptr);
  q.reinsert_lru(*n);  // in-place demotion rewrites the mark before relink
  EXPECT_EQ(q.lru_id(), 1u);
  EXPECT_EQ(q.lru_insert_pos(), 0);
  n = q.find(1);
  ASSERT_NE(n, nullptr);
  q.reinsert_mru(*n);  // tail falls back to 2, which keeps its LRU mark
  EXPECT_EQ(q.lru_id(), 2u);
  EXPECT_EQ(q.lru_insert_pos(), 0);
  (void)q.pop_lru();  // tail falls back to 1, reinserted at MRU above
  EXPECT_EQ(q.lru_id(), 1u);
  EXPECT_EQ(q.lru_insert_pos(), 1);
}

TEST(LruQueue, ReinsertMatchesEraseInsertRestore) {
  // reinsert_mru/_lru replace SCIP's historical erase + insert + restore
  // sequence; the visible order and fields must match it exactly.
  LruQueue a, b;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    a.insert_mru(id, 10);
    b.insert_mru(id, 10);
  }
  LruQueue::Node* n = a.find(2);
  ASSERT_NE(n, nullptr);
  n->hits = 5;
  a.reinsert_mru(*n)  // in-place PROMOTE
      .aux = 99;
  LruQueue::Node out{};
  ASSERT_TRUE(b.erase(2, &out));
  LruQueue::Node& fresh = b.insert_mru(2, 10);
  fresh.hits = 5;  // field restore the old sequence had to do by hand
  fresh.aux = 99;
  ASSERT_EQ(a.count(), b.count());
  while (!a.empty()) {
    const LruQueue::Node va = a.pop_lru();
    const LruQueue::Node vb = b.pop_lru();
    ASSERT_EQ(va.id, vb.id);
    ASSERT_EQ(va.hits, vb.hits);
    ASSERT_EQ(va.aux, vb.aux);
    ASSERT_EQ(va.insert_pos, vb.insert_pos);
  }
}

// ---- several lists over one slab and one index --------------------------

TEST(LruQueue, ListsKeepTheirOwnEndsAndAccounting) {
  LruQueue q;
  for (std::uint64_t id = 0; id < 8; ++id) {
    q.insert_mru(id, 10 + id, id % LruQueue::kMaxLists);
  }
  q.insert_lru(8, 100, 2);
  for (std::size_t l = 0; l < LruQueue::kMaxLists; ++l) {
    EXPECT_EQ(q.count(l), l == 2 ? 3u : 2u);
    EXPECT_EQ(q.mru_id(l), 4 + l);
    EXPECT_EQ(q.lru_id(l), l == 2 ? 8u : l);
  }
  EXPECT_EQ(q.used_bytes(0), 10u + 14u);
  EXPECT_EQ(q.used_bytes(2), 12u + 16u + 100u);
  ASSERT_NE(q.find(6), nullptr);
  EXPECT_EQ(q.find(6)->list(), 2u);
  // Popping one list leaves the others alone.
  EXPECT_EQ(q.pop_lru(2).id, 8u);
  EXPECT_EQ(q.pop_lru(2).id, 2u);
  EXPECT_EQ(q.count(2), 1u);
  EXPECT_EQ(q.count(3), 2u);
  std::vector<std::uint64_t> seen;
  q.for_each_from_lru(
      [&](const LruQueue::Node& n) {
        seen.push_back(n.id);
        return true;
      },
      3);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 7}));
}

TEST(LruQueue, RelinkIntoAnotherListKeepsTheSlotAndMovesTheBytes) {
  LruQueue q;
  q.insert_mru(1, 10);
  q.insert_mru(2, 20);
  q.insert_mru(3, 30, 1);
  LruQueue::Node* n = q.find(1);
  ASSERT_NE(n, nullptr);
  n->hits = 4;
  n->insert_tick = 7;
  const LruQueue::Node* slot = n;
  q.reinsert_lru(*n, 1);
  EXPECT_EQ(q.find(1), slot);  // same slab slot, same index entry
  EXPECT_EQ(slot->list(), 1u);
  EXPECT_EQ(slot->insert_pos, 0);
  EXPECT_EQ(slot->hits, 4u);
  EXPECT_EQ(slot->insert_tick, 7);
  EXPECT_EQ(q.count(0), 1u);
  EXPECT_EQ(q.used_bytes(0), 20u);
  EXPECT_EQ(q.count(1), 2u);
  EXPECT_EQ(q.used_bytes(1), 40u);
  EXPECT_EQ(q.lru_id(1), 1u);
  EXPECT_EQ(q.lru_id(0), 2u);
  q.reinsert_mru(*q.find(1), 0);
  EXPECT_EQ(q.mru_id(0), 1u);
  EXPECT_EQ(q.find(1)->insert_pos, 1);
  EXPECT_EQ(q.used_bytes(0), 30u);
  // One index for all lists: the charge is that of three one-list entries.
  LruQueue one;
  for (std::uint64_t id = 1; id <= 3; ++id) one.insert_mru(id, 1);
  EXPECT_EQ(q.metadata_bytes(), one.metadata_bytes());
}

TEST(LruQueue, MovingAnLruEndNodeKeepsEveryField) {
  // One step of a demotion cascade: list 1's LRU end goes to list 0's MRU
  // end with its insertion mark, ticks and hits, as a pop + insert + field
  // copy once did.
  LruQueue q;
  q.insert_lru(1, 5, 1).hits = 2;
  q.insert_mru(2, 6, 1);
  q.insert_mru(3, 7);
  q.touch_mru(q.lru_node(1), 0);
  const LruQueue::Node* n = q.find(1);
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->list(), 0u);
  EXPECT_EQ(n->insert_pos, 0);
  EXPECT_EQ(n->hits, 2u);
  EXPECT_EQ(q.mru_id(0), 1u);
  EXPECT_EQ(q.lru_id(0), 3u);
  EXPECT_EQ(q.lru_id(1), 2u);
  EXPECT_EQ(q.used_bytes(0), 12u);
  EXPECT_EQ(q.used_bytes(1), 6u);
  // Touching within a list is unchanged; touching the target's head is a
  // no-op.
  q.touch_mru(*q.find(1), 0);
  EXPECT_EQ(q.mru_id(0), 1u);
  EXPECT_EQ(q.count(0), 2u);
}

// Differential test: random operations against a std::list reference.
TEST(LruQueue, MatchesReferenceModelUnderRandomOps) {
  LruQueue q;
  std::list<std::uint64_t> ref;  // front = MRU
  auto ref_find = [&](std::uint64_t id) {
    return std::find(ref.begin(), ref.end(), id);
  };
  Rng rng(1234);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = rng.below(64);
    switch (rng.below(6)) {
      case 0:
        if (!q.contains(id)) {
          q.insert_mru(id, 1);
          ref.push_front(id);
        }
        break;
      case 1:
        if (!q.contains(id)) {
          q.insert_lru(id, 1);
          ref.push_back(id);
        }
        break;
      case 2:
        if (q.contains(id)) {
          q.touch_mru(id);
          ref.erase(ref_find(id));
          ref.push_front(id);
        }
        break;
      case 3:
        if (q.contains(id)) {
          q.demote_lru(id);
          ref.erase(ref_find(id));
          ref.push_back(id);
        }
        break;
      case 4:
        if (q.contains(id)) {
          q.move_up_one(id);
          auto it = ref_find(id);
          if (it != ref.begin()) {
            auto prev = std::prev(it);
            std::iter_swap(it, prev);
          }
        }
        break;
      case 5:
        if (!ref.empty() && rng.chance(0.5)) {
          EXPECT_EQ(q.pop_lru().id, ref.back());
          ref.pop_back();
        } else if (q.contains(id)) {
          q.erase(id);
          ref.erase(ref_find(id));
        }
        break;
    }
    ASSERT_EQ(q.count(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(q.mru_id(), ref.front());
      ASSERT_EQ(q.lru_id(), ref.back());
    }
  }
  // Final full-order comparison.
  std::vector<std::uint64_t> got;
  q.for_each_from_lru([&](const LruQueue::Node& n) {
    got.push_back(n.id);
    return true;
  });
  std::vector<std::uint64_t> want(ref.rbegin(), ref.rend());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace cdn
