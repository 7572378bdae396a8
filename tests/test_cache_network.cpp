// Cache-tree contracts (cluster/topology.hpp): trees of caches as
// `Topology` specs (round-robin leaves, parents owning contiguous blocks of
// children), replayed on one thread in trace order.
//
// The centerpiece is the analytical cross-check: a tree of RANDOM-
// replacement caches under IRM Zipf traffic has closed-form per-layer miss
// ratios (Gallo et al., PAPERS.md; sim/network_analytic.hpp). We replay
// unit-size Zipf traces through tree topologies and require the simulated
// per-tier miss ratios to match the analytical fixed point at depth 1 and
// depth 2 within pinned tolerances — validating routing, admission and
// accounting far from the trivial single-cache case.
//
// Alongside: the RANDOM cache contract, miss-forwarding conservation,
// occupancy bounds and structural audits via audit::Inspector /
// audit::AuditedCache, bitwise rerun determinism, and literal counter
// pins. The TDC chain lives in test_tdc.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "core/registry.hpp"
#include "sim/audit/audited_cache.hpp"
#include "sim/audit/invariants.hpp"
#include "sim/network_analytic.hpp"
#include "sim/queue_cache.hpp"
#include "topology_fixtures.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace cdn::cluster {
namespace {

using fixtures::null_origin;
using fixtures::tree_tier;

/// Homogeneous two-tier tree: `leaves` identical round-robin leaves under
/// one root. leaves == 0 collapses it to the root alone.
Topology two_tier_tree(const std::string& leaf_policy,
                       std::uint64_t leaf_capacity, std::size_t leaves,
                       const std::string& root_policy,
                       std::uint64_t root_capacity, std::uint64_t seed) {
  std::vector<Tier> tiers;
  if (leaves > 0) {
    Tier leaf_tier;
    leaf_tier.placement = Placement::kRoundRobin;
    for (std::size_t i = 0; i < leaves; ++i) {
      leaf_tier.nodes.push_back(
          make_cache(leaf_policy, leaf_capacity, seed ^ hash64(i + 2)));
    }
    tiers.push_back(std::move(leaf_tier));
  }
  tiers.push_back(tree_tier(leaves > 0 ? Placement::kChildBlock
                                       : Placement::kRoundRobin,
                            root_policy, root_capacity, seed, {0}));
  return Topology(std::move(tiers), null_origin());
}

/// Unit-size Zipf IRM trace over ids [1, catalog] — the traffic model the
/// analytical oracle assumes (unit sizes make capacity-in-bytes equal
/// capacity-in-objects).
Trace unit_zipf_trace(std::size_t n_requests, std::size_t catalog,
                      double alpha, std::uint64_t seed) {
  Trace t;
  t.name = "unit-zipf";
  t.requests.resize(n_requests);
  ZipfSampler z(catalog, alpha);
  Rng rng(seed);
  for (std::size_t i = 0; i < n_requests; ++i) {
    t.requests[i].time = static_cast<std::int64_t>(i);
    t.requests[i].id = 1 + z.sample(rng);
    t.requests[i].size = 1;
  }
  return t;
}

std::vector<double> zipf_weights(std::size_t catalog, double alpha) {
  ZipfSampler z(catalog, alpha);
  std::vector<double> w(catalog);
  for (std::size_t r = 0; r < catalog; ++r) w[r] = z.pmf(r);
  return w;
}

/// Replays requests [from, to), request i with index i (as replay() does).
void replay_range(Topology& topo, const Trace& t, std::size_t from,
                  std::size_t to) {
  for (std::size_t i = from; i < to; ++i) topo.access(t.requests[i], i);
}

// ---------------------------------------------------------- RANDOM contract

TEST(Topology, RandomCacheHonorsBasicCacheContract) {
  CachePtr cache = make_cache("RANDOM", 10, 1);
  EXPECT_EQ(cache->name(), "RANDOM");
  Request a;
  a.id = 1;
  a.size = 4;
  Request b;
  b.id = 2;
  b.size = 4;
  EXPECT_FALSE(cache->access(a));  // cold miss admits
  EXPECT_TRUE(cache->access(a));   // now resident
  EXPECT_FALSE(cache->access(b));
  EXPECT_TRUE(cache->contains(1));
  EXPECT_TRUE(cache->contains(2));
  // An object larger than the cache is bypassed, not admitted.
  Request big;
  big.id = 3;
  big.size = 11;
  EXPECT_FALSE(cache->access(big));
  EXPECT_FALSE(cache->contains(3));
  // Filling past capacity evicts someone but never exceeds the bound.
  Request c;
  c.id = 4;
  c.size = 4;
  EXPECT_FALSE(cache->access(c));
  EXPECT_LE(cache->used_bytes(), cache->capacity());
}

// ------------------------------------------------------- Gallo cross-check

// Tolerances for |simulated - analytical| per-layer miss ratios, pinned
// against measured gaps (deterministic: fixed seeds, fixed RNG): depth-1
// 1.4e-4 and depth-2 leaf 6.4e-4 (characteristic-time approximation only),
// depth-2 root 3.0e-2 (the root stream additionally relies on Gallo's
// independence approximation, which is the dominant error term).
constexpr double kDepth1Tol = 0.01;
constexpr double kDepth2LeafTol = 0.01;
constexpr double kDepth2RootTol = 0.04;

TEST(GalloCrossCheck, Depth1MatchesAnalyticalMissRatio) {
  constexpr std::size_t kCatalog = 2'000;
  constexpr double kAlpha = 0.8;
  constexpr std::uint64_t kCacheObjects = 200;
  constexpr std::size_t kWarm = 400'000;
  constexpr std::size_t kN = 2'000'000;

  const Trace t = unit_zipf_trace(kN, kCatalog, kAlpha, 101);
  // No leaves: the root alone is the single cache.
  Topology topo = two_tier_tree("RANDOM", 0, 0, "RANDOM", kCacheObjects, 1);
  ASSERT_EQ(topo.tier_count(), 1u);
  ASSERT_EQ(topo.node_count(0), 1u);

  replay_range(topo, t, 0, kWarm);
  const FlowStats warm = topo.stats(0, 0);
  replay_range(topo, t, kWarm, kN);
  const FlowStats total = topo.stats(0, 0);

  const double sim_miss =
      static_cast<double>(total.misses() - warm.misses()) /
      static_cast<double>(total.requests - warm.requests);
  const net::RndLayerSolution sol =
      net::solve_rnd_layer(zipf_weights(kCatalog, kAlpha), kCacheObjects);

  EXPECT_NEAR(sim_miss, sol.miss_ratio, kDepth1Tol);
  // The fixed point itself is sane: occupancy constraint holds.
  double occ = 0.0;
  for (const double h : sol.hit_prob) occ += h;
  EXPECT_NEAR(occ, static_cast<double>(kCacheObjects), 1e-6);
}

TEST(GalloCrossCheck, Depth2MatchesAnalyticalPerLayerMissRatios) {
  constexpr std::size_t kCatalog = 2'000;
  constexpr double kAlpha = 0.8;
  constexpr std::uint64_t kLeafObjects = 100;
  constexpr std::uint64_t kRootObjects = 200;
  constexpr std::size_t kLeaves = 2;
  constexpr std::size_t kWarm = 600'000;
  constexpr std::size_t kN = 3'000'000;

  const Trace t = unit_zipf_trace(kN, kCatalog, kAlpha, 202);
  Topology topo = two_tier_tree("RANDOM", kLeafObjects, kLeaves, "RANDOM",
                                kRootObjects, 2);
  ASSERT_EQ(topo.tier_count(), 2u);
  ASSERT_EQ(topo.node_count(0), kLeaves);
  ASSERT_EQ(topo.node_count(1), 1u);

  replay_range(topo, t, 0, kWarm);
  const FlowStats warm_leaf = topo.tier_stats(0);
  const FlowStats warm_root = topo.tier_stats(1);
  replay_range(topo, t, kWarm, kN);
  const FlowStats leaf = topo.tier_stats(0);
  const FlowStats root = topo.tier_stats(1);

  const auto delta_miss_ratio = [](const FlowStats& all,
                                   const FlowStats& warm) {
    return static_cast<double>(all.misses() - warm.misses()) /
           static_cast<double>(all.requests - warm.requests);
  };
  const double sim_leaf = delta_miss_ratio(leaf, warm_leaf);
  const double sim_root = delta_miss_ratio(root, warm_root);

  const net::RndTreeSolution sol = net::solve_rnd_tree2(
      zipf_weights(kCatalog, kAlpha), kLeafObjects, kRootObjects);

  EXPECT_NEAR(sim_leaf, sol.leaf_miss_ratio, kDepth2LeafTol);
  EXPECT_NEAR(sim_root, sol.root_miss_ratio, kDepth2RootTol);
  // System-level chain: origin traffic = leaf misses that also miss the
  // root; compare against the composed analytical value.
  const double sim_system = sim_leaf * sim_root;
  EXPECT_NEAR(sim_system, sol.system_miss_ratio,
              kDepth2LeafTol + kDepth2RootTol);
}

// ------------------------------------------------------------------- trees

TEST(Topology, MissForwardingConservesRequests) {
  // Three-tier tree (root <- 2 regionals <- 2 leaves each), mixed
  // policies: every parent must see exactly its children's misses, and the
  // origin exactly the root's misses. Node seeds follow the tree's
  // preorder numbering (root 0, regionals 1 and 4, leaves 2, 3, 5, 6).
  std::vector<Tier> tiers;
  tiers.push_back(tree_tier(Placement::kRoundRobin, "LRU", 64 << 10, 7,
                            {2, 3, 5, 6}));
  tiers.push_back(
      tree_tier(Placement::kChildBlock, "S4LRU", 256 << 10, 7, {1, 4}));
  tiers.push_back(tree_tier(Placement::kChildBlock, "SCIP", 1 << 20, 7, {0}));
  Topology topo(std::move(tiers), null_origin());

  const Trace t = unit_zipf_trace(200'000, 5'000, 0.9, 303);
  // Give the trace non-unit sizes so byte-capacity eviction paths run too.
  Trace sized = t;
  for (Request& r : sized.requests) r.size = 100 + (hash64(r.id) % 4'000);
  const ReplayResult run = replay(topo, sized);

  EXPECT_EQ(run.total.requests(), sized.requests.size());
  EXPECT_EQ(topo.tier_stats(0).requests, sized.requests.size());
  // Conservation at every parent node.
  for (std::size_t tier = 1; tier < topo.tier_count(); ++tier) {
    std::vector<std::uint64_t> child_misses(topo.node_count(tier), 0);
    for (std::size_t c = 0; c < topo.node_count(tier - 1); ++c) {
      child_misses[topo.place(tier, 0, 0, c)] +=
          topo.stats(tier - 1, c).misses();
    }
    for (std::size_t p = 0; p < topo.node_count(tier); ++p) {
      EXPECT_EQ(topo.stats(tier, p).requests, child_misses[p])
          << "tier " << tier << " node " << p;
    }
  }
  // The origin sees exactly the root's misses, booked at the root.
  const FlowStats& root = topo.stats(2, 0);
  EXPECT_EQ(root.origin_fetches, root.misses());
  EXPECT_EQ(topo.origin().stats().fetches, root.misses());
  EXPECT_EQ(run.total.tiers.back().origin_fetches, root.misses());

  // Literal counters captured from the recursive tree simulator this
  // topology replaced (per node: requests, hits).
  const std::uint64_t kPins[3][4][2] = {
      {{50000, 8762}, {50000, 8793}, {50000, 8704}, {50000, 8682}},
      {{82445, 26167}, {82614, 26441}},
      {{112451, 25295}},
  };
  for (std::size_t tier = 0; tier < topo.tier_count(); ++tier) {
    for (std::size_t n = 0; n < topo.node_count(tier); ++n) {
      SCOPED_TRACE("tier " + std::to_string(tier) + " node " +
                   std::to_string(n));
      EXPECT_EQ(topo.stats(tier, n).requests, kPins[tier][n][0]);
      EXPECT_EQ(topo.stats(tier, n).hits, kPins[tier][n][1]);
    }
  }
  EXPECT_EQ(topo.origin().stats().fetches, 87156u);
}

TEST(Topology, OccupancyBoundsAndStructuralAuditsHold) {
  // Every node wrapped in AuditedCache (contract checks per access) and,
  // for queue-backed nodes, audited structurally via audit::Inspector after
  // the replay. Node seeds 11 + preorder index (root 0, leaves 1..3).
  std::vector<std::vector<const QueueCache*>> queues(2);
  const auto audited = [&queues](std::size_t tier, const std::string& policy,
                                 std::uint64_t capacity, std::uint64_t seed) {
    CachePtr inner = make_cache(policy, capacity, seed);
    queues[tier].push_back(dynamic_cast<const QueueCache*>(inner.get()));
    return std::make_unique<audit::AuditedCache>(std::move(inner));
  };
  std::vector<Tier> tiers(2);
  tiers[0].placement = Placement::kRoundRobin;
  for (std::uint64_t i = 0; i < 3; ++i) {
    tiers[0].nodes.push_back(audited(0, "RANDOM", 300, 12 + i));
  }
  tiers[1].placement = Placement::kChildBlock;
  tiers[1].nodes.push_back(audited(1, "LRU", 1'000, 11));
  Topology topo(std::move(tiers), null_origin());

  const Trace t = unit_zipf_trace(300'000, 4'000, 0.8, 404);
  (void)replay(topo, t);  // AuditedCache throws on any contract violation

  for (std::size_t tier = 0; tier < topo.tier_count(); ++tier) {
    for (std::size_t n = 0; n < topo.node_count(tier); ++n) {
      SCOPED_TRACE("tier " + std::to_string(tier) + " node " +
                   std::to_string(n));
      const Cache& cache = topo.cache_at(tier, n);
      EXPECT_LE(cache.used_bytes(), cache.capacity());
      ASSERT_NE(queues[tier][n], nullptr);
      const audit::AuditReport r = audit::Inspector::check(
          queues[tier][n]->audit_queue(), cache.capacity());
      EXPECT_TRUE(r.ok()) << r.to_string();
    }
  }
}

TEST(Topology, TreeReplayIsBitwiseRerunDeterministic) {
  const Trace t = unit_zipf_trace(150'000, 3'000, 0.9, 505);

  Topology a = two_tier_tree("RANDOM", 200, 2, "RANDOM", 400, 42);
  Topology b = two_tier_tree("RANDOM", 200, 2, "RANDOM", 400, 42);
  (void)replay(a, t);
  (void)replay(b, t);
  for (std::size_t tier = 0; tier < a.tier_count(); ++tier) {
    for (std::size_t n = 0; n < a.node_count(tier); ++n) {
      EXPECT_EQ(a.stats(tier, n), b.stats(tier, n))
          << "tier " << tier << " node " << n;
    }
  }

  // A different seed steers RANDOM's victim stream differently.
  Topology c = two_tier_tree("RANDOM", 200, 2, "RANDOM", 400, 43);
  (void)replay(c, t);
  std::uint64_t diff = 0;
  for (std::size_t tier = 0; tier < a.tier_count(); ++tier) {
    for (std::size_t n = 0; n < a.node_count(tier); ++n) {
      diff += a.stats(tier, n).hits != c.stats(tier, n).hits;
    }
  }
  EXPECT_GT(diff, 0u);
}

}  // namespace
}  // namespace cdn::cluster
