// Tests for the FIFO byte-bounded history lists (shadow caches / ghost
// lists) and their shared index.
#include <gtest/gtest.h>

#include "sim/audit/audited_queue.hpp"
#include "sim/audit/differential.hpp"
#include "sim/audit/invariants.hpp"
#include "sim/fifo_history.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

using audit::AuditedHistory;
using audit::Inspector;

TEST(GhostList, AddAndContains) {
  FifoHistory<1> g(100);
  g.add(0, 1, 10);
  EXPECT_TRUE(g.contains(0, 1));
  EXPECT_FALSE(g.contains(0, 2));
  EXPECT_EQ(g.count(0), 1u);
  EXPECT_EQ(g.used_bytes(0), 10u);
}

TEST(GhostList, EraseReturnsSizeAndTag) {
  FifoHistory<1> g(100);
  g.add(0, 1, 42, true);
  std::uint64_t size = 0;
  bool tag = false;
  EXPECT_TRUE(g.erase(0, 1, &size, &tag));
  EXPECT_EQ(size, 42u);
  EXPECT_TRUE(tag);
  EXPECT_FALSE(g.contains(0, 1));
  EXPECT_FALSE(g.erase(0, 1));
}

TEST(GhostList, DefaultTagFalse) {
  FifoHistory<1> g(100);
  g.add(0, 3, 5);
  bool tag = true;
  g.erase(0, 3, nullptr, &tag);
  EXPECT_FALSE(tag);
}

TEST(GhostList, FifoEvictionOnOverflow) {
  FifoHistory<1> g(30);
  g.add(0, 1, 10);
  g.add(0, 2, 10);
  g.add(0, 3, 10);
  g.add(0, 4, 10);  // evicts 1 (oldest)
  EXPECT_FALSE(g.contains(0, 1));
  EXPECT_TRUE(g.contains(0, 2));
  EXPECT_TRUE(g.contains(0, 4));
  EXPECT_LE(g.used_bytes(0), 30u);
}

TEST(GhostList, ReAddRefreshesToFront) {
  FifoHistory<1> g(30);
  g.add(0, 1, 10);
  g.add(0, 2, 10);
  g.add(0, 3, 10);
  g.add(0, 1, 10);  // refresh: 1 becomes newest
  g.add(0, 4, 10);  // evicts 2 now, not 1
  EXPECT_TRUE(g.contains(0, 1));
  EXPECT_FALSE(g.contains(0, 2));
}

TEST(GhostList, OversizedRecordIgnored) {
  FifoHistory<1> g(10);
  g.add(0, 1, 100);
  EXPECT_FALSE(g.contains(0, 1));
  EXPECT_EQ(g.used_bytes(0), 0u);
}

TEST(GhostList, ByteBoundHeldUnderChurn) {
  FifoHistory<1> g(1000);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    g.add(0, i, 1 + i % 97);
    ASSERT_LE(g.used_bytes(0), 1000u);
  }
  EXPECT_TRUE(Inspector::check(g).ok()) << Inspector::check(g).to_string();
}

TEST(GhostList, AddHashedMatchesAdd) {
  // The plain operations hash with hash64 and forward to the _hashed ones;
  // under churn, refreshes and capacity drops the two must stay
  // indistinguishable.
  FifoHistory<1> plain(500), hashed(500);
  Rng rng(42);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = rng.below(40);
    const std::uint64_t size = 1 + rng.below(60);  // forces frequent drops
    const bool tag = rng.chance(0.5);
    if (rng.chance(0.75)) {
      plain.add(0, id, size, tag);
      hashed.add_hashed(0, id, size, tag, hash64(id));
    } else {
      std::uint64_t sa = 0, sb = 0;
      bool ta = false, tb = false;
      ASSERT_EQ(plain.erase(0, id, &sa, &ta),
                hashed.erase_hashed(0, id, hash64(id), &sb, &tb));
      ASSERT_EQ(sa, sb);
      ASSERT_EQ(ta, tb);
    }
    ASSERT_EQ(plain.count(0), hashed.count(0));
    ASSERT_EQ(plain.used_bytes(0), hashed.used_bytes(0));
    ASSERT_EQ(plain.contains(0, id), hashed.contains(0, id));
  }
}

TEST(GhostList, PerEntryBytesIsSizeofDerived) {
  // A 24-byte ring record {id, size, hash tag, live, caller tag} plus three
  // 8-byte index slots: the same 3-slot slack amortization LruQueue uses.
  EXPECT_EQ(FifoHistory<1>::kPerEntryBytes, 24u + 3u * 8u);
  EXPECT_EQ(FifoHistory<2>::kPerEntryBytes, 48u);
}

TEST(GhostList, MetadataProportionalToLiveCount) {
  FifoHistory<2> g(1000);
  g.add(0, 1, 10);
  g.add(1, 2, 10);
  g.add(1, 3, 10);
  EXPECT_EQ(g.metadata_bytes(), 3 * FifoHistory<2>::kPerEntryBytes);
  // Tombstones hold no object metadata.
  g.erase(1, 2);
  g.add(0, 1, 10);  // refresh: one record, one tombstone
  EXPECT_EQ(g.metadata_bytes(), 2 * FifoHistory<2>::kPerEntryBytes);
}

// ---- two lists over one index ----------------------------------------------

TEST(FifoHistory, IdInBothListsIsTwoRecords) {
  AuditedHistory<2> g(100);
  g.add(0, 7, 10, true);
  g.add(1, 7, 20, false);
  EXPECT_TRUE(g.contains(0, 7));
  EXPECT_TRUE(g.contains(1, 7));
  EXPECT_EQ(g.history().count(), 2u);
  // A DELETE of one list leaves the other's record.
  std::uint64_t size = 0;
  EXPECT_TRUE(g.erase(1, 7, &size));
  EXPECT_EQ(size, 20u);
  EXPECT_TRUE(g.contains(0, 7));
  // erase_all takes every list's record in one probe.
  g.add(1, 7, 30, true);
  const auto erased = g.erase_all(7);
  EXPECT_TRUE(erased[0].found);
  EXPECT_TRUE(erased[0].tag);
  EXPECT_EQ(erased[0].size, 10u);
  EXPECT_TRUE(erased[1].found);
  EXPECT_EQ(erased[1].size, 30u);
  EXPECT_EQ(g.history().count(), 0u);
  const auto again = g.erase_all(7);
  EXPECT_FALSE(again[0].found);
  EXPECT_FALSE(again[1].found);
}

TEST(FifoHistory, ListsKeepSeparateBudgetsAndOrder) {
  AuditedHistory<2> g(30);
  for (std::uint64_t id = 1; id <= 4; ++id) g.add(0, id, 10);
  g.add(1, 100, 30);
  EXPECT_FALSE(g.contains(0, 1));  // list 0 dropped its own oldest
  EXPECT_TRUE(g.contains(1, 100));
  EXPECT_EQ(g.used_bytes(0), 30u);
  EXPECT_EQ(g.used_bytes(1), 30u);
  EXPECT_EQ(Inspector::history_ids(g.history(), 0),
            (std::vector<std::uint64_t>{4, 3, 2}));
}

TEST(FifoHistory, OversizeAddErasesOnlyThatListsRecord) {
  AuditedHistory<2> g(100);
  g.add(0, 5, 10);
  g.add(1, 5, 10);
  g.add(1, 5, 200);  // untrackable: list 1 forgets 5, list 0 keeps it
  EXPECT_TRUE(g.contains(0, 5));
  EXPECT_FALSE(g.contains(1, 5));
  EXPECT_EQ(g.used_bytes(1), 0u);
}

TEST(FifoHistory, RefreshLeavesATombstoneTheDropSkips) {
  AuditedHistory<1> g(30);
  g.add(0, 1, 10);
  g.add(0, 2, 10);
  g.add(0, 1, 10);  // 1's first record is now a tombstone at the drop end
  g.add(0, 3, 10);
  g.add(0, 4, 10);  // drops: skip the tombstone, drop 2
  EXPECT_EQ(Inspector::history_ids(g.history(), 0),
            (std::vector<std::uint64_t>{4, 3, 1}));
}

TEST(FifoHistory, DeleteBetweenTombstones) {
  AuditedHistory<1> g(1000);
  for (std::uint64_t id = 1; id <= 5; ++id) g.add(0, id, 10);
  EXPECT_TRUE(g.erase(0, 2));
  EXPECT_TRUE(g.erase(0, 4));
  EXPECT_TRUE(g.erase(0, 3));  // both ring neighbours are tombstones
  EXPECT_FALSE(g.contains(0, 3));
  EXPECT_EQ(Inspector::history_ids(g.history(), 0),
            (std::vector<std::uint64_t>{5, 1}));
  EXPECT_EQ(g.used_bytes(0), 20u);
}

TEST(FifoHistory, RingGrowsAndCompactsWithoutLosingOrder) {
  // Far more records than the initial ring holds (growth), then churn with
  // deletes that leave more tombstones than live records (compaction in
  // place), audited after every operation.
  AuditedHistory<2> g(1'000'000);
  for (std::uint64_t id = 0; id < 300; ++id) g.add(id % 2, id, 1);
  for (std::uint64_t id = 0; id < 300; id += 3) g.erase(id % 2, id);
  for (std::uint64_t id = 300; id < 700; ++id) {
    g.add(id % 2, id, 1);
    g.erase(id % 2, id - 250);
  }
  // Survivors of list 1, newest first: the odd ids past the erase window,
  // then the odd ids before it that the every-third erase spared.
  std::vector<std::uint64_t> want;
  for (std::uint64_t id = 699; id >= 450; --id) {
    if (id % 2 == 1) want.push_back(id);
  }
  for (std::uint64_t id = 49; id >= 1; --id) {
    if (id % 2 == 1 && id % 3 != 0) want.push_back(id);
  }
  EXPECT_EQ(Inspector::history_ids(g.history(), 1), want);
}

/// A hash with only eight distinct low-32-bit values: most ids share their
/// index tag with others, so every probe must confirm against the ring.
std::uint64_t colliding_hash(std::uint64_t id) {
  return hash64(id % 8) | (id << 32);
}

TEST(FifoHistory, TagCollisionsAreConfirmedAgainstTheRing) {
  AuditedHistory<2> g(1'000, &colliding_hash);
  for (std::uint64_t id = 0; id < 64; ++id) g.add(id % 2, id, 10);
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_TRUE(g.contains(id % 2, id)) << id;
    EXPECT_FALSE(g.contains(1 - id % 2, id)) << id;
  }
  for (std::uint64_t id = 0; id < 64; id += 2) {
    const auto erased = g.erase_all(id);
    EXPECT_TRUE(erased[0].found) << id;
    EXPECT_FALSE(erased[1].found) << id;
  }
  EXPECT_EQ(g.count(0), 0u);
  EXPECT_EQ(g.count(1), 32u);
}

TEST(FifoHistory, TwoListDifferentialMatchesReferenceModels) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xdeadbeefULL}) {
    audit::DiffConfig cfg;
    cfg.seed = seed;
    const audit::DiffResult r = audit::run_history_differential(cfg);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    EXPECT_EQ(r.ops_executed, cfg.num_ops);
  }
}

TEST(FifoHistory, TwoListDifferentialUnderTagCollisions) {
  audit::DiffConfig cfg;
  cfg.seed = 3;
  cfg.hash = &colliding_hash;
  const audit::DiffResult r = audit::run_history_differential(cfg);
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(FifoHistory, TwoListDifferentialWithRoomyAndTightLists) {
  // Roomy lists: tombstones pile up without drops, forcing compactions.
  audit::DiffConfig roomy;
  roomy.seed = 11;
  roomy.capacity_bytes = 1 << 20;
  roomy.id_space = 200;
  EXPECT_TRUE(audit::run_history_differential(roomy).ok);
  // Tight lists: nearly every add drops, some adds are oversize.
  audit::DiffConfig tight;
  tight.seed = 12;
  tight.capacity_bytes = 80;
  EXPECT_TRUE(audit::run_history_differential(tight).ok);
}

}  // namespace
}  // namespace cdn
