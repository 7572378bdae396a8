// Behavioral tests for the replacement-algorithm baselines, plus the
// Belady-optimality property test.
#include <gtest/gtest.h>

#include "core/ascip_cache.hpp"
#include "core/scip_cache.hpp"
#include "core/scip_engine.hpp"
#include "policies/admission/two_q.hpp"
#include "policies/insertion/dgippr.hpp"
#include "policies/replacement/arc.hpp"
#include "policies/replacement/belady.hpp"
#include "policies/replacement/cacheus.hpp"
#include "policies/replacement/gdsf.hpp"
#include "policies/replacement/gl_cache.hpp"
#include "policies/replacement/lecar.hpp"
#include "policies/replacement/lhd.hpp"
#include "policies/replacement/lrb.hpp"
#include "policies/replacement/lru.hpp"
#include "policies/replacement/lru_k.hpp"
#include "policies/replacement/s4lru.hpp"
#include "policies/replacement/sslru.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/oracle.hpp"

namespace cdn {
namespace {

Request req(std::int64_t t, std::uint64_t id, std::uint64_t size = 10) {
  return Request{t, id, size, -1};
}

TEST(LruK, EvictsSubKHistoryFirst) {
  LruKCache c(30, 2);
  c.access(req(0, 1));
  c.access(req(1, 1));  // 1 now has K=2 references
  c.access(req(2, 2));
  c.access(req(3, 3));
  // Cache full: {1 (2 refs), 2 (1 ref), 3 (1 ref)}. Inserting 4 must evict
  // from the infinite-distance band (2, the least recent single-ref), not 1.
  c.access(req(4, 4));
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruK, RetainedHistorySurvivesEviction) {
  LruKCache c(20, 2);
  c.access(req(0, 1));
  c.access(req(1, 1));  // K-history established
  c.access(req(2, 2));
  c.access(req(3, 3));  // evicts someone
  c.access(req(4, 4));
  // Even after eviction, re-accessing 1 resumes the retained history: the
  // single new reference plus retained one keeps it in the K band.
  c.access(req(5, 1));
  EXPECT_TRUE(c.contains(1));
}

TEST(S4Lru, HitClimbsSegments) {
  S4LruCache c(400);
  c.access(req(0, 1, 10));
  EXPECT_TRUE(c.access(req(1, 1, 10)));
  EXPECT_TRUE(c.access(req(2, 1, 10)));
  EXPECT_TRUE(c.access(req(3, 1, 10)));
  EXPECT_TRUE(c.check_invariants());
  // Flood segment 0; object 1, promoted high, must survive.
  for (int i = 0; i < 30; ++i) c.access(req(10 + i, 100 + i, 10));
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.check_invariants());
}

TEST(S4Lru, ObjectLargerThanASegmentIsNotAdmitted) {
  // Segments hold 100 bytes each. An object of 150 bytes fits the cache but
  // no segment: admitting it once flushed every older segment-0 object and
  // then the object itself.
  S4LruCache c(400);
  for (std::uint64_t id = 1; id <= 10; ++id) c.access(req(id, id, 10));
  EXPECT_FALSE(c.access(req(11, 99, 150)));
  EXPECT_FALSE(c.contains(99));
  for (std::uint64_t id = 1; id <= 10; ++id) EXPECT_TRUE(c.contains(id));
  EXPECT_EQ(c.used_bytes(), 100u);
  EXPECT_TRUE(c.check_invariants());
  // An object of exactly a segment's size is admitted.
  EXPECT_FALSE(c.access(req(12, 98, 100)));
  EXPECT_TRUE(c.contains(98));
  EXPECT_TRUE(c.check_invariants());
}

TEST(S4Lru, InvariantsUnderWorkload) {
  S4LruCache c(1 << 20);
  const Trace t = generate_trace(cdn_t_like(0.01));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_TRUE(c.check_invariants());
}

// Bytes the segmented stack charges for `n` residents, re-derived from the
// structure it holds: one LruQueue whose lists are the segments, with no
// second index, so the charge is the queue's own per-entry accounting.
std::uint64_t segmented_stack_bytes(std::size_t n) {
  LruQueue q;
  for (std::size_t i = 0; i < n; ++i) {
    q.insert_mru(i, 1, i % SegmentedCache::kLevels);
  }
  return q.metadata_bytes();
}

std::size_t resident_count(const Cache& c) {
  std::size_t n = 0;
  EXPECT_TRUE(c.for_each_resident([&n](std::uint64_t, std::uint64_t) {
    ++n;
    return true;
  }));
  return n;
}

TEST(S4Lru, MetadataDerivesFromTheStackAndItsExtras) {
  const Trace t = generate_trace(cdn_t_like(0.01));
  auto adv = std::make_shared<ScipAdvisor>(1 << 20);
  S4LruCache plain(1 << 20);
  S4LruCache advised(1 << 20, adv);
  DgipprCache dgippr(1 << 20, 7);
  for (const auto& r : t.requests) {
    plain.access(r);
    advised.access(r);
    dgippr.access(r);
  }
  const std::size_t n = resident_count(plain);
  ASSERT_GT(n, 0u);
  EXPECT_EQ(plain.metadata_bytes(), segmented_stack_bytes(n));
  EXPECT_EQ(advised.metadata_bytes(),
            segmented_stack_bytes(resident_count(advised)) +
                adv->metadata_bytes());
  EXPECT_EQ(dgippr.metadata_bytes(),
            segmented_stack_bytes(resident_count(dgippr)) +
                DgipprCache::kPopulation * sizeof(DgipprCache::Genome));
}

// Bytes a FifoHistory charges per live record, re-derived from its layout:
// a 24-byte ring record {id, size, hash tag, live, caller tag} plus three
// 8-byte index slots {hash tag, list bit | ring position}, the same 3-slot
// slack amortization as LruQueue.
constexpr std::uint64_t kHistoryRecordBytes = 24 + 3 * 8;

/// Bytes an LruQueue charges for `n` entries.
std::uint64_t lru_queue_bytes(std::size_t n) {
  LruQueue q;
  for (std::size_t i = 0; i < n; ++i) q.insert_mru(i, 1);
  return q.metadata_bytes();
}

TEST(HistoryHosts, MetadataDerivesFromTheQueuesAndHistoryRecords) {
  // SCIP over a trace, at a capacity whose 1/32 monitors fall below
  // monitor_min_bytes (so the duels are off and charge nothing): resident
  // entries, history records and the advisor's fixed state.
  const Trace t = generate_trace(cdn_t_like(0.01));
  auto scip = std::make_shared<ScipAdvisor>(1 << 20);
  AdvisedLruCache scip_host(1 << 20, scip);
  for (const auto& r : t.requests) scip_host.access(r);
  const std::size_t scip_records = scip->hm_count() + scip->hl_count();
  ASSERT_GT(scip_records, 0u);
  EXPECT_EQ(scip_host.metadata_bytes(),
            lru_queue_bytes(resident_count(scip_host)) +
                scip_records * kHistoryRecordBytes +
                ScipAdvisor::fixed_state_bytes());

  // The other hosts on scripted sequences whose history contents are known:
  // fifteen distinct 10-byte objects through 100-byte caches.
  ArcCache arc(100);  // T1 keeps 6..15, B1 records 1..5
  TwoQCache two_q(100);  // A1in keeps 14, 15; A1out keeps 9..13 (50 bytes)
  LeCarCache lecar(100);  // five victims, each in one expert's ghost
  for (std::uint64_t id = 1; id <= 15; ++id) {
    arc.access(req(static_cast<std::int64_t>(id), id));
    two_q.access(req(static_cast<std::int64_t>(id), id));
    lecar.access(req(static_cast<std::int64_t>(id), id));
  }
  EXPECT_EQ(arc.metadata_bytes(), lru_queue_bytes(10) + lru_queue_bytes(0) +
                                      5 * kHistoryRecordBytes + 16);
  EXPECT_EQ(two_q.metadata_bytes(), lru_queue_bytes(2) + lru_queue_bytes(0) +
                                        5 * kHistoryRecordBytes);
  // LeCaR also charges a 64-byte LFU set node per resident and a 48-byte
  // eviction-tick entry per ghost.
  EXPECT_EQ(lecar.metadata_bytes(), lru_queue_bytes(10) + 10 * 64 +
                                        5 * kHistoryRecordBytes + 5 * 48);

  // ASC-IP records only LRU-inserted victims: 100 KiB objects sit above its
  // 64 KiB initial threshold, so all fifteen go in at LRU and the five
  // evicted ones fill H_l (half of 1 MiB).
  auto ascip = std::make_shared<AscIpAdvisor>(1 << 20);
  AdvisedLruCache ascip_host(1 << 20, ascip);
  for (std::uint64_t id = 1; id <= 15; ++id) {
    ascip_host.access(req(static_cast<std::int64_t>(id), id, 100 << 10));
  }
  EXPECT_EQ(ascip_host.metadata_bytes(),
            lru_queue_bytes(10) + 5 * kHistoryRecordBytes + 32);
}

TEST(Gdsf, PrefersSmallOverLargeAtEqualFrequency) {
  GdsfCache c(100);
  c.access(req(0, 1, 60));  // large
  c.access(req(1, 2, 10));  // small
  // Full enough that inserting another 60-byte object forces an eviction:
  // the large object has the lower priority (freq/size), so it goes first.
  c.access(req(2, 3, 60));
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
}

TEST(Gdsf, FrequencyProtects) {
  GdsfCache c(100);
  c.access(req(0, 1, 50));
  for (int i = 0; i < 10; ++i) c.access(req(1 + i, 1, 50));  // freq 11
  c.access(req(20, 2, 50));  // freq 1, same size
  c.access(req(21, 3, 50));  // someone must go: the low-frequency one
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(Gdsf, InflationMonotone) {
  GdsfCache c(200);
  double last = c.inflation();
  const Trace t = generate_trace(cdn_a_like(0.005));
  for (const auto& r : t.requests) {
    c.access(r);
    ASSERT_GE(c.inflation(), last);
    last = c.inflation();
  }
}

TEST(Lhd, StaysWithinCapacityAndHitsHotSet) {
  LhdCache c(1 << 16);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    // 8 hot objects + noise.
    const bool hot = i % 2 == 0;
    const std::uint64_t id = hot ? (i / 2) % 8 : 10000 + i;
    if (c.access(req(i, id, 100))) ++hits;
  }
  EXPECT_GT(hits, 8000);  // hot accesses should nearly all hit
  EXPECT_LE(c.used_bytes(), 1u << 16);
}

TEST(LeCar, WeightsStayNormalizedAndMove) {
  LeCarCache c(1 << 14);
  const Trace t = generate_trace(cdn_w_like(0.02));
  for (const auto& r : t.requests) {
    c.access(r);
    ASSERT_GE(c.w_lru(), 0.0);
    ASSERT_LE(c.w_lru(), 1.0);
  }
}

TEST(Cacheus, AdaptiveLearningRateStaysInBounds) {
  CacheusCache c(1 << 14);
  const Trace t = generate_trace(cdn_w_like(0.05));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_GE(c.learning_rate(), 0.001);
  EXPECT_LE(c.learning_rate(), 1.0);
}

TEST(Lrb, TrainsAndRespectsCapacity) {
  LrbParams p;
  p.memory_window = 1 << 14;
  p.train_batch = 2048;
  p.min_retrain_gap = 4096;
  LrbCache c(4ULL << 20, p);
  const Trace t = generate_trace(cdn_w_like(0.05));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_TRUE(c.model_trained());
  EXPECT_GE(c.retrain_count(), 1u);
  EXPECT_LE(c.used_bytes(), 4ULL << 20);
}

TEST(GlCache, TrainsAndRespectsCapacity) {
  GlCacheParams p;
  p.segment_objects = 16;
  p.train_batch = 128;
  p.label_horizon = 2048;
  p.snapshot_every = 32;
  GlCache c(4ULL << 20, p);
  const Trace t = generate_trace(cdn_w_like(0.05));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_TRUE(c.model_trained());
  EXPECT_LE(c.used_bytes(), 4ULL << 20);
}

TEST(SsLru, ProtectedSurvivesScan) {
  SsLruCache c(1 << 14, 0.5);
  // Establish a hot object with several hits (likely promoted).
  for (int i = 0; i < 20; ++i) c.access(req(i, 1, 100));
  // Scan of one-time objects through probation.
  for (int i = 0; i < 200; ++i) c.access(req(100 + i, 1000 + i, 100));
  EXPECT_TRUE(c.contains(1));
}

TEST(Belady, ThrowsOnUnannotatedTrace) {
  BeladyCache c(100);
  EXPECT_THROW(c.access(req(0, 1)), std::runtime_error);
}

TEST(Belady, EvictsFurthestFuture) {
  BeladyCache c(20);
  // next fields hand-crafted.
  c.access(Request{0, 1, 10, 2});   // next at index 2
  c.access(Request{1, 2, 10, 99});  // far future
  c.access(Request{2, 1, 10, 3});   // hit; now full
  c.access(Request{3, 3, 10, 5});   // wait: 1's next=3 passed; evict...
  // Object 2 (next=99) is the furthest and must be the victim.
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(Belady, NeverWorseThanLruOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto spec = cdn_t_like(0.01);
    spec.seed = seed * 101;
    Trace t = generate_trace(spec);
    annotate_next_access(t);
    const std::uint64_t cap = 16ULL << 20;
    LruCache lru(cap);
    BeladyCache belady(cap);
    const auto r_lru = simulate(lru, t);
    const auto r_bel = simulate(belady, t);
    EXPECT_LE(r_bel.object_miss_ratio(), r_lru.object_miss_ratio() + 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace cdn
