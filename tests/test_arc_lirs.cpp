// Behavioral tests for ARC and LIRS (§7 related-work policies).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "policies/replacement/arc.hpp"
#include "policies/replacement/lirs.hpp"
#include "policies/replacement/lru.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"

namespace cdn {
namespace {

Request req(std::int64_t t, std::uint64_t id, std::uint64_t size = 10) {
  return Request{t, id, size, -1};
}

TEST(Arc, ColdMissEntersT1HitMovesToT2) {
  ArcCache c(100);
  c.access(req(0, 1));
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.access(req(1, 1)));  // promoted to T2
  EXPECT_TRUE(c.contains(1));
}

TEST(Arc, FrequentObjectSurvivesScan) {
  ArcCache c(200);
  for (int i = 0; i < 6; ++i) c.access(req(i, 1));  // firmly in T2
  // One-shot scan floods T1.
  for (int i = 0; i < 100; ++i) c.access(req(10 + i, 100 + i));
  EXPECT_TRUE(c.contains(1));
}

TEST(Arc, GhostHitAdapts) {
  ArcCache c(40);
  // Fill, evict, then re-request to trip a B1 ghost hit.
  c.access(req(0, 1));
  c.access(req(1, 2));
  c.access(req(2, 3));
  c.access(req(3, 4));
  c.access(req(4, 5));  // pushes earliest into B1
  const auto p_before = c.target_t1();
  c.access(req(5, 1));  // likely a B1 ghost hit -> p grows
  EXPECT_GE(c.target_t1(), p_before);
}

TEST(Arc, CapacityInvariantUnderWorkload) {
  ArcCache c(8ULL << 20);
  const Trace t = generate_trace(cdn_t_like(0.02));
  for (const auto& r : t.requests) {
    c.access(r);
  }
  EXPECT_LE(c.used_bytes(), 8ULL << 20);
}

TEST(Arc, ScanResistanceBeatsLruOnLoopMix) {
  // Hot set + long scan: ARC should lose fewer hot hits than LRU.
  Trace t;
  int tick = 0;
  for (int round = 0; round < 200; ++round) {
    for (int h = 0; h < 8; ++h) {
      t.requests.push_back(req(tick++, static_cast<std::uint64_t>(h), 100));
    }
    for (int s = 0; s < 12; ++s) {
      t.requests.push_back(
          req(tick++, static_cast<std::uint64_t>(1000 + round * 12 + s),
              100));
    }
  }
  ArcCache arc(1600);
  LruCache lru(1600);
  const auto r_arc = simulate(arc, t);
  const auto r_lru = simulate(lru, t);
  EXPECT_LT(r_arc.object_miss_ratio(), r_lru.object_miss_ratio());
}

TEST(Lirs, BasicHitsAndResidency) {
  LirsCache c(1000);
  EXPECT_FALSE(c.access(req(0, 1, 100)));
  EXPECT_TRUE(c.access(req(1, 1, 100)));
  EXPECT_TRUE(c.contains(1));
  EXPECT_LE(c.used_bytes(), 1000u);
}

TEST(Lirs, CapacityInvariantUnderWorkload) {
  LirsCache c(8ULL << 20);
  const Trace t = generate_trace(cdn_w_like(0.02));
  for (const auto& r : t.requests) {
    c.access(r);
    ASSERT_LE(c.used_bytes(), 8ULL << 20);
  }
}

TEST(Lirs, LowIrrBlocksSurviveOneShotScan) {
  LirsCache c(3000, 0.1);
  // Establish low-IRR blocks by re-referencing them.
  for (int round = 0; round < 4; ++round) {
    for (int h = 0; h < 10; ++h) {
      c.access(req(round * 10 + h, static_cast<std::uint64_t>(h), 100));
    }
  }
  // One-shot scan larger than the cache.
  for (int s = 0; s < 100; ++s) {
    c.access(req(1000 + s, static_cast<std::uint64_t>(5000 + s), 100));
  }
  int survivors = 0;
  for (int h = 0; h < 10; ++h) {
    if (c.contains(static_cast<std::uint64_t>(h))) ++survivors;
  }
  EXPECT_GE(survivors, 8);  // LIR set shielded from the scan
}

TEST(Lirs, ObjectLargerThanTheLirBudgetDoesNotHang) {
  // The LIR budget is floor(0.99 x capacity), so an object that fits the
  // cache can still exceed it. Each sequence below once left a HIR ghost at
  // the stack bottom that demote_coldest_lir() refused to move, and the
  // eviction or demotion loop never returned.
  struct Access {
    std::uint64_t id, size;
  };
  struct Case {
    std::uint64_t capacity;
    std::vector<Access> accesses;
  };
  const Case kCases[] = {
      {100, {{1, 100}, {2, 1}, {1, 100}}},
      {1000, {{1, 1000}, {2, 10}, {3, 10}, {1, 1000}}},
      {1, {{1, 1}, {2, 1}, {1, 1}}},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE("capacity " + std::to_string(c.capacity));
    LirsCache cache(c.capacity);
    std::int64_t t = 0;
    for (const Access& a : c.accesses) {
      cache.access(req(t++, a.id, a.size));
      ASSERT_LE(cache.used_bytes(), c.capacity);
    }
    // The last access admitted its object, which is now resident.
    EXPECT_TRUE(cache.contains(c.accesses.back().id));
  }
}

TEST(Lirs, DeterministicReplay) {
  const Trace t = generate_trace(cdn_a_like(0.01));
  LirsCache a(4ULL << 20);
  LirsCache b(4ULL << 20);
  const auto ra = simulate(a, t);
  const auto rb = simulate(b, t);
  EXPECT_EQ(ra.hits, rb.hits);
}

}  // namespace
}  // namespace cdn
