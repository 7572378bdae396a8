// TDC chain contracts (cluster/topology.hpp): the OC -> DC -> origin chain
// of Fig. 6 as a two-tier `Topology` spec, replayed on one thread in trace
// order, and served by concurrent threads.
//
// Covers the latency model, spec validation and placement, windowed replay
// (windows are relative to the earliest request and never outnumber the
// requests), request conservation across tiers, latency per hit layer, BTO
// versus capacity, SCIP at the cache layer, bitwise rerun determinism,
// literal counter pins and flow conservation under concurrent access.
// Cache trees and the analytical cross-check live in
// test_cache_network.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "cluster/latency_model.hpp"
#include "cluster/topology.hpp"
#include "core/factories.hpp"
#include "policies/replacement/lru.hpp"
#include "topology_fixtures.hpp"
#include "trace/generator.hpp"

namespace cdn::cluster {
namespace {

using fixtures::lru_nodes;
using fixtures::tree_tier;

/// An LRU TDC chain: `oc` edge nodes in front of `dc` shield nodes.
Topology lru_chain(std::size_t oc = 4, std::size_t dc = 2,
                   std::uint64_t oc_capacity = 8ULL << 20,
                   std::uint64_t dc_capacity = 32ULL << 20) {
  return Topology(
      tdc_chain(lru_nodes(oc, oc_capacity), lru_nodes(dc, dc_capacity)));
}

Trace times_trace(std::initializer_list<std::int64_t> times) {
  Trace t;
  std::uint64_t id = 1;
  for (const std::int64_t time : times) {
    t.requests.push_back({time, id++, 100, -1});
  }
  return t;
}

// ------------------------------------------------------------ latency model

TEST(LatencyModel, HopsAreOrdered) {
  LatencyModel m;
  const std::uint64_t size = 1 << 20;
  EXPECT_LT(m.oc_hit_ms(size), m.dc_hit_ms(size));
  EXPECT_LT(m.dc_hit_ms(size), m.origin_ms(size));
}

TEST(LatencyModel, LargerObjectsTakeLonger) {
  LatencyModel m;
  EXPECT_LT(m.origin_ms(1 << 10), m.origin_ms(1 << 24));
}

// --------------------------------------------------------------- structure

TEST(Topology, RejectsBadSpecs) {
  EXPECT_THROW(Topology(std::vector<Tier>{}), std::invalid_argument);
  EXPECT_THROW(Topology(tdc_chain(lru_nodes(0, 100), lru_nodes(1, 100))),
               std::invalid_argument);
  // A striped service of zero nodes is an empty tier.
  const auto lru = [](std::uint64_t cap, std::size_t) -> CachePtr {
    return std::make_unique<LruCache>(cap);
  };
  EXPECT_THROW(Topology(striped(100, 0, lru)), std::invalid_argument);
  std::vector<CachePtr> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(Topology(tdc_chain(std::move(with_null), lru_nodes(1, 100))),
               std::invalid_argument);
  // A child-block tier needs a tier below it.
  std::vector<Tier> tiers(1);
  tiers[0].placement = Placement::kChildBlock;
  tiers[0].nodes = lru_nodes(1, 100);
  EXPECT_THROW(Topology(std::move(tiers)), std::invalid_argument);
}

TEST(Topology, PlacementInRangeAndSticky) {
  const Topology chain = lru_chain(5, 3);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    EXPECT_LT(chain.place(0, id, 0, 0), 5u);
    EXPECT_LT(chain.place(1, id, 0, 0), 3u);
    // Salted mod depends on the id only.
    EXPECT_EQ(chain.place(0, id, 0, 0), chain.place(0, id, id + 9, 4));
    EXPECT_EQ(chain.place(1, id, 0, 0), chain.place(1, id, id + 9, 4));
  }
  // Round-robin leaves, and parents owning contiguous blocks of them.
  std::vector<Tier> tiers;
  tiers.push_back(tree_tier(Placement::kRoundRobin, "LRU", 100, 1,
                            {2, 3, 5, 6}));
  tiers.push_back(tree_tier(Placement::kChildBlock, "LRU", 100, 1, {1, 4}));
  tiers.push_back(tree_tier(Placement::kChildBlock, "LRU", 100, 1, {0}));
  const Topology tree(std::move(tiers));
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(tree.place(0, 77, i, 0), i % 4);
  }
  const std::size_t parent_of_leaf[] = {0, 0, 1, 1};
  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    EXPECT_EQ(tree.place(1, 77, 0, leaf), parent_of_leaf[leaf]);
  }
  EXPECT_EQ(tree.place(2, 77, 0, 0), 0u);
  EXPECT_EQ(tree.place(2, 77, 0, 1), 0u);
}

// --------------------------------------------------------------- TDC chain

TEST(Replay, RequestConservation) {
  Topology chain = lru_chain();
  const Trace t = generate_trace(cdn_t_like(0.02));
  const ReplayResult res = replay(chain, t);
  EXPECT_EQ(res.total.requests(), t.size());
  FlowWindow sum;
  sum.tiers.resize(2);
  for (const FlowWindow& w : res.windows) {
    for (std::size_t tier = 0; tier < 2; ++tier) {
      sum.tiers[tier] += w.tiers[tier];
    }
  }
  EXPECT_EQ(sum.tiers, res.total.tiers);
  // The windows and the per-node records describe the same flow.
  EXPECT_EQ(chain.tier_stats(0), res.total.tiers[0]);
  EXPECT_EQ(chain.tier_stats(1), res.total.tiers[1]);
  // The DC sees exactly the OC misses; the origin exactly the DC misses.
  EXPECT_EQ(res.total.tiers[1].requests, res.total.tiers[0].misses());
  EXPECT_EQ(res.total.tiers[1].origin_fetches, res.total.tiers[1].misses());
  EXPECT_EQ(chain.tier_stats(1).origin_bytes, res.total.bto_bytes());
  EXPECT_LE(res.total.bto_bytes(), res.total.bytes_requested());
}

TEST(Replay, EmptyTrace) {
  Topology chain = lru_chain();
  const ReplayResult res = replay(chain, Trace{});
  EXPECT_EQ(res.total.requests(), 0u);
  EXPECT_TRUE(res.windows.empty());
  EXPECT_EQ(res.total.bto_ratio(), 0.0);
  EXPECT_EQ(res.total.mean_latency_ms(), 0.0);
  EXPECT_EQ(res.mean_bto_gbps(), 0.0);
}

TEST(Replay, WindowsAreRelativeToTheEarliestTime) {
  // Unsorted times: the minute-3 request gets its own window, not the
  // minute-1 one.
  Topology a = lru_chain(1, 1);
  const ReplayResult ra = replay(a, times_trace({0, 180'000, 60'000}));
  ASSERT_EQ(ra.windows.size(), 3u);
  EXPECT_EQ(ra.windows[0].index, 0u);
  EXPECT_EQ(ra.windows[1].index, 1u);
  EXPECT_EQ(ra.windows[2].index, 3u);
  for (const FlowWindow& w : ra.windows) EXPECT_EQ(w.requests(), 1u);

  // Unix-epoch milliseconds: one window, not one per minute since 1970.
  Topology b = lru_chain(1, 1);
  const ReplayResult rb =
      replay(b, times_trace({1'700'000'000'000, 1'700'000'030'000}));
  EXPECT_EQ(rb.start_ms, 1.7e12);
  ASSERT_EQ(rb.windows.size(), 1u);
  EXPECT_EQ(rb.windows[0].index, 0u);
  EXPECT_EQ(rb.windows[0].requests(), 2u);

  // A span of decades still costs one record per non-empty window, and
  // negative times are windows like any other.
  Topology c = lru_chain(1, 1);
  const ReplayResult rc =
      replay(c, times_trace({1'700'000'000'000, -90'000, 0}));
  EXPECT_EQ(rc.start_ms, -90'000.0);
  ASSERT_EQ(rc.windows.size(), 3u);
  EXPECT_EQ(rc.windows[0].index, 0u);
  EXPECT_EQ(rc.windows[1].index, 1u);
  EXPECT_EQ(rc.windows[2].index, 28'333'334u);
  EXPECT_EQ(rc.total.requests(), 3u);
}

TEST(Replay, LatencyReflectsHitLayers) {
  // All-hits traffic (a single tiny hot object) must converge to the OC
  // round trip; all-miss traffic must pay the origin path.
  const LatencyModel lat;
  Topology hot_chain = lru_chain(1, 1);
  Trace hot;
  for (int i = 0; i < 10000; ++i) {
    hot.requests.push_back({i, 7, 100, -1});
  }
  const ReplayResult hot_res = replay(hot_chain, hot);
  EXPECT_LT(hot_res.total.mean_latency_ms(), lat.dc_hit_ms(100));

  Topology cold_chain = lru_chain(1, 1);
  Trace cold;
  for (int i = 0; i < 10000; ++i) {
    cold.requests.push_back({i, static_cast<std::uint64_t>(1000 + i),
                             100, -1});
  }
  const ReplayResult cold_res = replay(cold_chain, cold);
  EXPECT_NEAR(cold_res.total.mean_latency_ms(), lat.origin_ms(100), 1.0);
  EXPECT_EQ(cold_res.total.bto_bytes(), cold_res.total.bytes_requested());
}

TEST(Replay, BtoRatioDropsWithBiggerCaches) {
  const Trace t = generate_trace(cdn_t_like(0.05));
  Topology small = lru_chain(4, 2, 2ULL << 20, 8ULL << 20);
  Topology big = lru_chain(4, 2, 64ULL << 20, 512ULL << 20);
  EXPECT_GT(replay(small, t).total.bto_ratio(),
            replay(big, t).total.bto_ratio());
}

/// The Fig. 6 chain: `oc` OC nodes (SCIP or LRU) in front of one LRU DC.
Topology fig6_chain(bool scip, std::size_t oc, std::uint64_t oc_capacity,
                    std::uint64_t dc_capacity) {
  std::vector<CachePtr> oc_nodes;
  for (std::size_t i = 0; i < oc; ++i) {
    oc_nodes.push_back(scip ? make_scip_lru(oc_capacity, 100 + i)
                            : std::make_unique<LruCache>(oc_capacity));
  }
  return Topology(tdc_chain(std::move(oc_nodes), lru_nodes(1, dc_capacity)));
}

TEST(Replay, ScipAtCacheLayerImprovesBtoAndLatency) {
  // The Fig. 6 configuration: SCIP replaces LRU's insertion policy on the
  // cache-layer nodes (the paper's TDC deployment); the thin DC stands in
  // for the origin-side shield. EXPERIMENTS.md documents why SCIP is
  // applied at one layer: hierarchical layers interact adversarially (an
  // OC that absorbs more hits starves the DC of reuse).
  const Trace t = generate_trace(cdn_w_like(0.3));
  Topology lru = fig6_chain(false, 2, 90ULL << 20, 32ULL << 20);
  Topology scip = fig6_chain(true, 2, 90ULL << 20, 32ULL << 20);
  const ReplayResult r_lru = replay(lru, t);
  const ReplayResult r_scip = replay(scip, t);
  EXPECT_LT(r_scip.total.bto_ratio(), r_lru.total.bto_ratio());
  EXPECT_LT(r_scip.total.mean_latency_ms(), r_lru.total.mean_latency_ms());
}

TEST(Replay, OneByOneChainMatchesLiteralCounters) {
  // One SCIP OC in front of one LRU DC. Literals captured from the
  // threaded TDC engine this replay replaced (deterministic with one OC:
  // a single worker replayed the trace in order).
  const Trace t = generate_trace(cdn_w_like(0.05));
  Topology chain = fig6_chain(true, 1, 16ULL << 20, 32ULL << 20);
  const ReplayResult res = replay(chain, t);
  EXPECT_EQ(res.total.requests(), 62500u);
  EXPECT_EQ(res.total.bytes_requested(), 2482114169u);
  EXPECT_EQ(res.total.tiers[0].hits, 22231u);
  EXPECT_EQ(res.total.tiers[1].hits, 3319u);
  EXPECT_EQ(res.total.bto_bytes(), 1478719579u);
  EXPECT_EQ(res.total.latency_ms_sum, 4114067.0717750126);
}

TEST(Replay, TwoOcScipChainIsBitwiseRerunDeterministic) {
  // The Fig. 6 SCIP arm at a tenth of its scale. Both OCs share the DC, so
  // any order dependence would show up in the DC's counters.
  const Trace t = generate_trace(cdn_w_like(0.05));
  Topology a = fig6_chain(true, 2, 9ULL << 20, (32ULL << 20) / 10);
  Topology b = fig6_chain(true, 2, 9ULL << 20, (32ULL << 20) / 10);
  const ReplayResult ra = replay(a, t);
  const ReplayResult rb = replay(b, t);
  ASSERT_EQ(ra.windows.size(), rb.windows.size());
  for (std::size_t w = 0; w < ra.windows.size(); ++w) {
    EXPECT_EQ(ra.windows[w].tiers, rb.windows[w].tiers) << "window " << w;
    EXPECT_EQ(ra.windows[w].latency_ms_sum, rb.windows[w].latency_ms_sum);
  }
  for (std::size_t tier = 0; tier < a.tier_count(); ++tier) {
    for (std::size_t n = 0; n < a.node_count(tier); ++n) {
      EXPECT_EQ(a.stats(tier, n), b.stats(tier, n))
          << "tier " << tier << " node " << n;
    }
  }
  EXPECT_EQ(ra.total.latency_ms_sum, rb.total.latency_ms_sum);

  // Literal counters of the trace-order replay (per node: requests, hits,
  // bytes, bytes hit, origin fetches, origin bytes).
  const std::uint64_t kPins[3][6] = {
      {31890, 11883, 1144319608, 377090577, 0, 0},
      {30610, 11002, 1337794561, 495761618, 0, 0},
      {39615, 50, 1609261974, 1580051, 39565, 1607681923},
  };
  const FlowStats nodes[] = {a.stats(0, 0), a.stats(0, 1), a.stats(1, 0)};
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(nodes[i].requests, kPins[i][0]);
    EXPECT_EQ(nodes[i].hits, kPins[i][1]);
    EXPECT_EQ(nodes[i].bytes_total, kPins[i][2]);
    EXPECT_EQ(nodes[i].bytes_hit, kPins[i][3]);
    EXPECT_EQ(nodes[i].origin_fetches, kPins[i][4]);
    EXPECT_EQ(nodes[i].origin_bytes, kPins[i][5]);
  }
  EXPECT_EQ(ra.total.latency_ms_sum, 4282010.6655000011);
}

TEST(Topology, ConcurrentAccessConservesFlowPerTier) {
  // Four threads drive access() on the two-OC/one-DC chain, thread w the
  // requests i with i % 4 == w. Interleaving changes which requests hit,
  // never the flow: the edge sees every request, the DC exactly the edge's
  // misses, and the origin exactly the root's misses — the requests
  // access() reported as misses. The tsan job runs this test.
  const Trace t = generate_trace(cdn_w_like(0.02));
  Topology chain = fig6_chain(true, 2, 9ULL << 20, 4ULL << 20);
  constexpr std::size_t kThreads = 4;
  std::vector<std::uint64_t> misses(kThreads, 0);
  std::vector<std::uint64_t> miss_bytes(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < t.size(); i += kThreads) {
        if (!chain.access(t.requests[i])) {
          ++misses[w];
          miss_bytes[w] += t.requests[i].size;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::uint64_t origin_fetches = 0, origin_bytes = 0;
  for (std::size_t w = 0; w < kThreads; ++w) {
    origin_fetches += misses[w];
    origin_bytes += miss_bytes[w];
  }
  const NodeStats edge = chain.tier_stats(0);
  const NodeStats dc = chain.tier_stats(1);
  EXPECT_EQ(edge.requests, t.size());
  EXPECT_EQ(dc.requests, edge.misses());
  EXPECT_EQ(dc.origin_fetches, dc.misses());
  EXPECT_EQ(dc.origin_fetches, origin_fetches);
  EXPECT_EQ(dc.origin_bytes, origin_bytes);
  EXPECT_EQ(edge.origin_fetches, 0u);
  EXPECT_LE(chain.used_bytes(), chain.capacity());
}

}  // namespace
}  // namespace cdn::cluster
