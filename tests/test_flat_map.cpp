// Property tests for cdn::FlatMap (util/flat_map.hpp).
//
// The map backs every hot-path id index in the simulator, so correctness is
// pinned differentially: long randomized op sequences (insert / erase /
// find / operator[]) are mirrored into std::unordered_map and the two must
// agree after every step. Backward-shift deletion is the delicate part —
// the churn scenarios below keep probe clusters long (high occupancy,
// erase-heavy mixes, wrap-around at the table end) so a shift bug cannot
// hide behind short probe runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

using Map = FlatMap<std::uint64_t, std::uint32_t>;
using Ref = std::unordered_map<std::uint64_t, std::uint32_t>;

/// Full-state agreement: same size, every reference entry found with the
/// same value, and every slot the map exposes present in the reference.
void expect_matches(const Map& m, const Ref& ref) {
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const std::uint32_t* p = m.find(k);
    ASSERT_NE(p, nullptr) << "key " << k << " lost";
    EXPECT_EQ(*p, v) << "key " << k;
  }
  std::size_t visited = 0;
  m.for_each([&](std::uint64_t k, std::uint32_t v) {
    ++visited;
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "phantom key " << k;
    EXPECT_EQ(it->second, v) << "key " << k;
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, EmptyMapBehaves) {
  Map m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0u);  // no allocation before first insert
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_FALSE(m.contains(42));
  EXPECT_FALSE(m.erase(42));
  m.clear();
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, InsertFindEraseBasics) {
  Map m;
  EXPECT_TRUE(m.insert(1, 100));
  EXPECT_FALSE(m.insert(1, 999));  // duplicate: value untouched
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 100u);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, SubscriptDefaultInsertsAndUpdates) {
  Map m;
  EXPECT_EQ(m[7], 0u);  // default-constructed on first touch
  m[7] = 3;
  EXPECT_EQ(m[7], 3u);
  EXPECT_EQ(m.size(), 1u);
  m[8] += 5;
  EXPECT_EQ(m[8], 5u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, FindPointerIsWritable) {
  Map m;
  m.insert(5, 1);
  *m.find(5) = 77;
  EXPECT_EQ(*m.find(5), 77u);
}

TEST(FlatMap, GrowsThroughManyRehashes) {
  Map m;
  Ref ref;
  for (std::uint64_t k = 0; k < 10000; ++k) {
    m.insert(k, static_cast<std::uint32_t>(k * 3));
    ref.emplace(k, static_cast<std::uint32_t>(k * 3));
  }
  EXPECT_GE(m.capacity(), m.size());
  // Power-of-two capacity with load <= 1/2.
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
  EXPECT_LE(m.size() * 2, m.capacity());
  expect_matches(m, ref);
}

TEST(FlatMap, ReservePreventsRehashDuringFill) {
  Map m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  EXPECT_GE(cap, 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) m.insert(k, 0);
  EXPECT_EQ(m.capacity(), cap);  // no growth mid-fill
}

TEST(FlatMap, ClearThenReuse) {
  Map m;
  for (std::uint64_t k = 0; k < 500; ++k) m.insert(k, 1);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  for (std::uint64_t k = 0; k < 500; ++k) EXPECT_EQ(m.find(k), nullptr);
  // Reuse after clear: fresh contents, no stale slots.
  Ref ref;
  for (std::uint64_t k = 250; k < 750; ++k) {
    m.insert(k, static_cast<std::uint32_t>(k));
    ref.emplace(k, static_cast<std::uint32_t>(k));
  }
  expect_matches(m, ref);
}

TEST(FlatMap, EraseEveryElementInBothDirections) {
  // Deleting a fully populated table front-to-back and back-to-front
  // exercises backward shift at every cluster position.
  for (const bool forward : {true, false}) {
    Map m;
    Ref ref;
    constexpr std::uint64_t kN = 2000;
    for (std::uint64_t k = 0; k < kN; ++k) {
      m.insert(k, static_cast<std::uint32_t>(k));
      ref.emplace(k, static_cast<std::uint32_t>(k));
    }
    for (std::uint64_t i = 0; i < kN; ++i) {
      const std::uint64_t k = forward ? i : kN - 1 - i;
      EXPECT_TRUE(m.erase(k));
      ref.erase(k);
      if (i % 97 == 0) expect_matches(m, ref);
    }
    EXPECT_TRUE(m.empty());
  }
}

TEST(FlatMap, BackwardShiftKeepsClustersReachable) {
  // High occupancy forces long probe clusters that wrap around the
  // power-of-two table end; erase keys from cluster middles and verify
  // every survivor stays reachable. With ~7/8 max load and 4096 keys in a
  // small key range, clusters regularly span the wrap boundary.
  Map m;
  Ref ref;
  Rng rng(101);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint32_t v = static_cast<std::uint32_t>(rng.next());
    m.insert(k, v);
    ref.emplace(k, v);
  }
  // Erase every third key — mid-cluster holes everywhere.
  for (std::uint64_t k = 0; k < 4096; k += 3) {
    EXPECT_EQ(m.erase(k), ref.erase(k) == 1);
  }
  expect_matches(m, ref);
  // Erasing an absent key that probes through surviving clusters must not
  // disturb them.
  for (std::uint64_t k = 0; k < 4096; k += 3) EXPECT_FALSE(m.erase(k));
  expect_matches(m, ref);
}

TEST(FlatMap, ReinsertAfterEraseLandsInCompactedSlots) {
  Map m;
  Ref ref;
  for (std::uint64_t k = 0; k < 1024; ++k) {
    m.insert(k, 1);
    ref.emplace(k, 1);
  }
  for (std::uint64_t k = 0; k < 1024; k += 2) {
    m.erase(k);
    ref.erase(k);
  }
  // Tombstone-free deletion means reinsertion fills the compacted holes
  // without capacity growth (same live count as the pre-erase peak).
  const std::size_t cap = m.capacity();
  for (std::uint64_t k = 0; k < 1024; k += 2) {
    m.insert(k, 2);
    ref.emplace(k, 2);
  }
  EXPECT_EQ(m.capacity(), cap);
  expect_matches(m, ref);
}

TEST(FlatMap, DifferentialRandomOps) {
  // The main differential property: long random op sequences against
  // std::unordered_map. A small key universe keeps hit rates and probe
  // clusters high; three seeds and a churn-heavy mix cover growth, steady
  // state, and shrink-to-empty regimes.
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    Map m;
    Ref ref;
    Rng rng(seed);
    for (int step = 0; step < 60000; ++step) {
      const std::uint64_t key = rng.below(1500);
      switch (rng.below(4)) {
        case 0: {  // insert
          const std::uint32_t v = static_cast<std::uint32_t>(rng.next());
          EXPECT_EQ(m.insert(key, v), ref.emplace(key, v).second);
          break;
        }
        case 1: {  // erase
          EXPECT_EQ(m.erase(key), ref.erase(key) == 1);
          break;
        }
        case 2: {  // find
          const std::uint32_t* p = m.find(key);
          const auto it = ref.find(key);
          ASSERT_EQ(p != nullptr, it != ref.end()) << "key " << key;
          if (p != nullptr) {
            EXPECT_EQ(*p, it->second);
          }
          break;
        }
        default: {  // operator[] (insert-or-update through the reference)
          const std::uint32_t v = static_cast<std::uint32_t>(rng.next());
          m[key] = v;
          ref[key] = v;
          break;
        }
      }
      ASSERT_EQ(m.size(), ref.size());
      if (step % 4999 == 0) expect_matches(m, ref);
    }
    expect_matches(m, ref);
    // Drain completely through erase: the final shrink regime.
    std::vector<std::uint64_t> keys;
    for (const auto& [k, v] : ref) keys.push_back(k);
    for (const std::uint64_t k : keys) {
      EXPECT_TRUE(m.erase(k));
      ref.erase(k);
      if (ref.size() % 131 == 0) expect_matches(m, ref);
    }
    EXPECT_TRUE(m.empty());
  }
}

TEST(FlatMap, HashedApiMatchesPlain) {
  // The *_hashed entry points with a caller-precomputed hash64(key) must
  // behave exactly like the plain ops (which hash internally).
  FlatMap<std::uint64_t, std::uint64_t> plain, hashed;
  Rng rng(9);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t k = rng.below(300);
    const std::uint64_t h = hash64(k);
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(plain.insert(k, k * 3), hashed.insert_hashed(k, k * 3, h));
        break;
      case 1: {
        const std::uint64_t* a = plain.find(k);
        const std::uint64_t* b = hashed.find_hashed(k, h);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr) {
          ASSERT_EQ(*a, *b);
        }
        break;
      }
      case 2:
        ASSERT_EQ(plain.erase(k), hashed.erase_hashed(k, h));
        break;
    }
    ASSERT_EQ(plain.size(), hashed.size());
  }
}

TEST(FlatMap, UpsertHashedInsertsOrFindsInPlace) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  bool inserted = false;
  std::uint64_t* slot = m.upsert_hashed(5, hash64(5), &inserted);
  ASSERT_NE(slot, nullptr);
  EXPECT_TRUE(inserted);
  *slot = 11;
  EXPECT_EQ(m.size(), 1u);
  // Second upsert of the same key: finds the live slot, does not insert.
  slot = m.upsert_hashed(5, hash64(5), &inserted);
  ASSERT_NE(slot, nullptr);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 11u);
  EXPECT_EQ(m.size(), 1u);
  *slot = 12;
  EXPECT_EQ(*m.find(5), 12u);
}

TEST(FlatMap, SparseKeysFullRange) {
  // Full 64-bit key range (the simulator keys by hashed object ids).
  Map m;
  Ref ref;
  Rng rng(55);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next();
    const std::uint32_t v = static_cast<std::uint32_t>(i);
    EXPECT_EQ(m.insert(key, v), ref.emplace(key, v).second);
  }
  expect_matches(m, ref);
}

TEST(FlatMap, DeterministicLayoutAcrossInstances) {
  // Same op sequence -> identical slot order (hash64 has no per-process
  // salt). This is the contract that lets FlatMap near policy code without
  // detlint's unordered-iteration hazard.
  auto build = [] {
    Map m;
    Rng rng(7);
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t key = rng.below(800);
      if (rng.chance(0.3)) {
        m.erase(key);
      } else {
        m.insert(key, static_cast<std::uint32_t>(i));
      }
    }
    return m;
  };
  const Map a = build();
  const Map b = build();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order_a;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order_b;
  a.for_each([&](std::uint64_t k, std::uint32_t v) { order_a.emplace_back(k, v); });
  b.for_each([&](std::uint64_t k, std::uint32_t v) { order_b.emplace_back(k, v); });
  EXPECT_EQ(order_a, order_b);
}

TEST(FlatMap, NarrowValueType) {
  // The segmented stack keys level bytes as uint8_t; exercise a non-u32
  // value type.
  FlatMap<std::uint64_t, std::uint8_t> m;
  for (std::uint64_t k = 0; k < 300; ++k) {
    m.insert(k, static_cast<std::uint8_t>(k & 3));
  }
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(*m.find(k), static_cast<std::uint8_t>(k & 3));
  }
  EXPECT_EQ((FlatMap<std::uint64_t, std::uint8_t>::kSlotBytes), 10u);
}

}  // namespace
}  // namespace cdn
