// Tests for the cluster placement layer (src/cluster/routing.hpp +
// hash_ring.hpp): salted-mod equivalence with the TDC chain formulas (and
// the topology's salted-mod tiers), ring determinism and membership-order
// independence, virtual-node load balance within a pinned bound, the
// consistent-hashing join/leave guarantee (only ring-adjacent ranges move,
// moved fraction ~ 1/N), and distinct prefix-stable k-owner lists for
// replication.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/routing.hpp"
#include "cluster/topology.hpp"
#include "core/registry.hpp"
#include "util/rng.hpp"

namespace cdn::cluster {
namespace {

TEST(Routing, RouteModMatchesTheSaltedFormulaBitwise) {
  for (std::uint64_t id : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
    for (std::size_t nodes : {1, 2, 3, 4, 7, 8}) {
      EXPECT_EQ(route_mod(id, kOcRouteSalt, nodes),
                hash64(id ^ 0x0c) % nodes);
      EXPECT_EQ(route_mod(id, kDcRouteSalt, nodes),
                hash64(id ^ 0xdc) % nodes);
    }
  }
}

std::vector<CachePtr> lru_nodes(std::size_t n) {
  std::vector<CachePtr> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(make_cache("LRU", 1 << 20));
  }
  return nodes;
}

TEST(Routing, TopologySaltedTiersReproduceTdcChainRouting) {
  // The TDC chain is a 2-tier Topology spec of salted-mod tiers; its
  // routing must be bit-for-bit what the golden masters pinned before the
  // port.
  const Topology chain(tdc_chain(lru_nodes(4), lru_nodes(2)),
                       make_backing_store("null", LatencyModel{}));
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t id = i * 0x9e3779b97f4a7c15ULL + 17;
    EXPECT_EQ(chain.place(0, id, i, 0), route_mod(id, kOcRouteSalt, 4));
    EXPECT_EQ(chain.place(1, id, i, 3), route_mod(id, kDcRouteSalt, 2));
    EXPECT_EQ(chain.place(0, id, i, 0), hash64(id ^ 0x0c) % 4);
    EXPECT_EQ(chain.place(1, id, i, 3), hash64(id ^ 0xdc) % 2);
  }
}

TEST(Routing, TopologyRejectsEmptyTiers) {
  EXPECT_THROW(Topology(tdc_chain(lru_nodes(0), lru_nodes(1)),
                        make_backing_store("null", LatencyModel{})),
               std::invalid_argument);
}

TEST(Routing, VnodePointIsTheHashOfThePackedPair) {
  EXPECT_EQ(vnode_point(0, 0), hash64(0));
  EXPECT_EQ(vnode_point(1, 0), hash64(1ULL << 32));
  EXPECT_EQ(vnode_point(3, 7), hash64((3ULL << 32) | 7));
}

HashRing make_ring(std::size_t nodes, std::size_t vnodes) {
  HashRing ring(vnodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    ring.add_node(static_cast<std::uint32_t>(n));
  }
  return ring;
}

/// Deterministic key set: spread ids pushed through the same hash the
/// request path uses.
std::vector<std::uint64_t> key_hashes(std::size_t n) {
  std::vector<std::uint64_t> hs;
  hs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    hs.push_back(hash64(static_cast<std::uint64_t>(i) * 2654435761ULL + 1));
  }
  return hs;
}

TEST(HashRing, MembershipAndPointBookkeeping) {
  HashRing ring(16);
  EXPECT_TRUE(ring.empty());
  ring.add_node(3);
  ring.add_node(1);
  EXPECT_EQ(ring.node_count(), 2u);
  EXPECT_EQ(ring.point_count(), 32u);
  EXPECT_TRUE(ring.contains_node(1));
  EXPECT_FALSE(ring.contains_node(2));
  EXPECT_THROW(ring.add_node(1), std::invalid_argument);
  EXPECT_THROW(ring.remove_node(2), std::invalid_argument);
  ring.remove_node(3);
  EXPECT_EQ(ring.node_count(), 1u);
  EXPECT_EQ(ring.point_count(), 16u);
  EXPECT_GT(ring.metadata_bytes(), 0u);
  EXPECT_THROW(HashRing(0), std::invalid_argument);
}

TEST(HashRing, OwnerIsDeterministicAndOrderIndependent) {
  // Same membership set, different join order: placement must be a pure
  // function of the set (the ring sorts by point, not insertion history).
  HashRing a(64);
  for (std::uint32_t n : {0u, 1u, 2u, 3u}) a.add_node(n);
  HashRing b(64);
  for (std::uint32_t n : {2u, 0u, 3u, 1u}) b.add_node(n);
  // And a third ring that took a detour through extra members.
  HashRing c(64);
  for (std::uint32_t n : {5u, 1u, 3u, 0u, 2u}) c.add_node(n);
  c.remove_node(5);
  for (std::uint64_t h : key_hashes(20'000)) {
    const std::uint32_t owner = a.owner_hashed(h);
    EXPECT_LT(owner, 4u);
    EXPECT_EQ(owner, b.owner_hashed(h));
    EXPECT_EQ(owner, c.owner_hashed(h));
  }
}

TEST(HashRing, VirtualNodeBalanceWithinPinnedBound) {
  // 8 nodes x 128 vnodes over 100k spread keys: no node may own more than
  // 1.5x its fair share or less than half of it. The measured max/mean at
  // these parameters is ~1.1 (vnode arc-length variance shrinks like
  // 1/sqrt(vnodes)); the pin leaves headroom for hash-function changes
  // only, not for balance regressions.
  const std::size_t kNodes = 8;
  const HashRing ring = make_ring(kNodes, 128);
  std::vector<std::uint64_t> owned(kNodes, 0);
  const std::vector<std::uint64_t> keys = key_hashes(100'000);
  for (std::uint64_t h : keys) ++owned[ring.owner_hashed(h)];
  const double mean =
      static_cast<double>(keys.size()) / static_cast<double>(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    EXPECT_LT(static_cast<double>(owned[n]), 1.5 * mean) << "node " << n;
    EXPECT_GT(static_cast<double>(owned[n]), 0.5 * mean) << "node " << n;
  }
}

TEST(HashRing, JoinMovesOnlyAdjacentRangesWithinBound) {
  const std::size_t kNodes = 4;
  HashRing ring = make_ring(kNodes, 64);
  const std::vector<std::uint64_t> keys = key_hashes(50'000);
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (std::uint64_t h : keys) before.push_back(ring.owner_hashed(h));

  ring.add_node(static_cast<std::uint32_t>(kNodes));
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t after = ring.owner_hashed(keys[i]);
    if (after != before[i]) {
      ++moved;
      // Adjacency: a key can only change owner by being claimed by the
      // joiner's new points; no key moves between two old nodes.
      EXPECT_EQ(after, kNodes) << "key " << i << " moved between old nodes";
    }
  }
  const double frac =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  // Consistent-hashing bound: the joiner claims ~1/(N+1) of the key space
  // (vnode variance gives a few percent of slack, pinned here).
  EXPECT_LE(frac, 1.0 / (kNodes + 1) + 0.08);
  EXPECT_GE(frac, 0.5 / (kNodes + 1));  // it really did take over load
}

TEST(HashRing, LeaveMovesOnlyTheDepartedNodesKeys) {
  const std::size_t kNodes = 5;
  HashRing ring = make_ring(kNodes, 64);
  const std::vector<std::uint64_t> keys = key_hashes(50'000);
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (std::uint64_t h : keys) before.push_back(ring.owner_hashed(h));

  constexpr std::uint32_t kLeaver = 2;
  ring.remove_node(kLeaver);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t after = ring.owner_hashed(keys[i]);
    if (before[i] == kLeaver) {
      ++moved;
      EXPECT_NE(after, kLeaver);
    } else {
      // Keys of surviving nodes never move on a leave.
      EXPECT_EQ(after, before[i]) << "survivor key " << i << " moved";
    }
  }
  const double frac =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_LE(frac, 1.0 / kNodes + 0.08);
  EXPECT_GE(frac, 0.5 / kNodes);
}

TEST(HashRing, OwnersAreDistinctPrefixStableAndClamped) {
  const HashRing ring = make_ring(5, 32);
  for (std::uint64_t h : key_hashes(5'000)) {
    std::uint32_t o2[2];
    std::uint32_t o4[4];
    std::uint32_t o8[8];
    ASSERT_EQ(ring.owners_hashed(h, 2, o2), 2u);
    ASSERT_EQ(ring.owners_hashed(h, 4, o4), 4u);
    // k beyond the member count clamps to every node, still distinct.
    ASSERT_EQ(ring.owners_hashed(h, 8, o8), 5u);
    EXPECT_EQ(o2[0], ring.owner_hashed(h));
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = i + 1; j < 4; ++j) {
        EXPECT_NE(o4[i], o4[j]);
      }
    }
    // Prefix stability: raising k never relocates existing copies.
    EXPECT_EQ(o4[0], o2[0]);
    EXPECT_EQ(o4[1], o2[1]);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(o8[i], o4[i]);
  }
}

TEST(HashRing, SingleNodeOwnsEverything) {
  const HashRing ring = make_ring(1, 8);
  for (std::uint64_t h : key_hashes(1'000)) {
    EXPECT_EQ(ring.owner_hashed(h), 0u);
    std::uint32_t out[4];
    EXPECT_EQ(ring.owners_hashed(h, 4, out), 1u);
    EXPECT_EQ(out[0], 0u);
  }
}

}  // namespace
}  // namespace cdn::cluster
