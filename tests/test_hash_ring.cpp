// Tests for the cluster placement layer (src/cluster/routing.hpp +
// hash_ring.hpp): salted-mod equivalence with the TDC chain formulas (and
// the topology's salted-mod tiers), ring determinism and membership-order
// independence, virtual-node load balance within a pinned bound, the
// consistent-hashing join/leave guarantee (only ring-adjacent ranges move,
// moved fraction ~ 1/N), distinct prefix-stable k-owner lists for
// replication, and the bucketed successor lookup's exact equivalence with a
// std::lower_bound reference through join/leave sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
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
  const Topology chain(tdc_chain(lru_nodes(4), lru_nodes(2)));
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t id = i * 0x9e3779b97f4a7c15ULL + 17;
    EXPECT_EQ(chain.place(0, id, i, 0), route_mod(id, kOcRouteSalt, 4));
    EXPECT_EQ(chain.place(1, id, i, 3), route_mod(id, kDcRouteSalt, 2));
    EXPECT_EQ(chain.place(0, id, i, 0), hash64(id ^ 0x0c) % 4);
    EXPECT_EQ(chain.place(1, id, i, 3), hash64(id ^ 0xdc) % 2);
  }
}

TEST(Routing, TopologyRejectsEmptyTiers) {
  EXPECT_THROW(Topology(tdc_chain(lru_nodes(0), lru_nodes(1))),
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

/// The ring a membership set defines, rebuilt from vnode_point alone and
/// sorted by (point, node): the reference the bucketed lookup must match.
class ReferenceRing {
 public:
  ReferenceRing(const std::vector<std::uint32_t>& members,
                std::size_t vnodes) {
    for (const std::uint32_t node : members) {
      for (std::size_t r = 0; r < vnodes; ++r) {
        points_.emplace_back(vnode_point(node, static_cast<std::uint32_t>(r)),
                             node);
      }
    }
    std::sort(points_.begin(), points_.end());
    for (const std::uint32_t node : members) {
      if (std::find(distinct_.begin(), distinct_.end(), node) ==
          distinct_.end()) {
        distinct_.push_back(node);
      }
    }
  }

  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint32_t>>&
  points() const {
    return points_;
  }

  /// The first min(3, members) distinct owners clockwise from
  /// std::lower_bound(h), written to `out`; returns their count.
  std::size_t owners3(std::uint64_t h, std::uint32_t (&out)[3]) const {
    auto it = std::lower_bound(
        points_.begin(), points_.end(), h,
        [](const std::pair<std::uint64_t, std::uint32_t>& p,
           std::uint64_t key) { return p.first < key; });
    std::size_t i = it == points_.end()
                        ? 0
                        : static_cast<std::size_t>(it - points_.begin());
    const std::size_t want = std::min<std::size_t>(3, distinct_.size());
    std::size_t found = 0;
    while (found < want) {
      const std::uint32_t node = points_[i].second;
      if (std::find(out, out + found, node) == out + found) {
        out[found++] = node;
      }
      i = (i + 1) % points_.size();
    }
    return found;
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
  std::vector<std::uint32_t> distinct_;
};

/// Checks owner_hashed and owners_hashed (k = 1..3) against the reference
/// at `h`; returns false after the first mismatch.
bool lookup_matches(const HashRing& ring, const ReferenceRing& ref,
                    std::uint64_t h) {
  std::uint32_t want[3];
  const std::size_t found = ref.owners3(h, want);
  if (ring.owner_hashed(h) != want[0]) {
    ADD_FAILURE() << "owner_hashed(" << h << ") = " << ring.owner_hashed(h)
                  << ", lower_bound gives " << want[0];
    return false;
  }
  for (std::size_t k = 1; k <= 3; ++k) {
    std::uint32_t out[3];
    const std::size_t got = ring.owners_hashed(h, k, out);
    if (got != std::min(k, found) || !std::equal(out, out + got, want)) {
      ADD_FAILURE() << "owners_hashed(" << h << ", " << k
                    << ") differs from the lower_bound walk";
      return false;
    }
  }
  return true;
}

TEST(HashRing, BucketedLookupMatchesLowerBoundThroughChurn) {
  // Random hashes, every ring point and its neighbours (the bucket scan's
  // boundaries), and the ends of the hash space, after every join and
  // every leave of a 1 -> 16 -> 1 node sequence in scrambled id order.
  Rng rng(2024);
  std::vector<std::uint64_t> random(100'000);
  for (std::uint64_t& h : random) h = rng.next();
  const std::uint32_t kJoinOrder[] = {7, 0, 12, 3, 15, 9, 1, 14,
                                      4, 10, 6, 13, 2, 11, 5, 8};
  const std::uint32_t kLeaveOrder[] = {0, 15, 4, 9, 13, 1, 6, 11,
                                       3, 12, 8, 2, 14, 10, 5};
  for (const std::size_t vnodes : {1, 64, 128}) {
    SCOPED_TRACE("vnodes " + std::to_string(vnodes));
    HashRing ring(vnodes);
    std::vector<std::uint32_t> members;
    const auto check = [&] {
      SCOPED_TRACE("members " + std::to_string(members.size()));
      const ReferenceRing ref(members, vnodes);
      ASSERT_EQ(ring.point_count(), ref.points().size());
      for (const std::uint64_t h : {std::uint64_t{0}, UINT64_MAX}) {
        ASSERT_TRUE(lookup_matches(ring, ref, h));
      }
      for (const auto& [point, node] : ref.points()) {
        for (const std::uint64_t h : {point - 1, point, point + 1}) {
          ASSERT_TRUE(lookup_matches(ring, ref, h));
        }
      }
      for (const std::uint64_t h : random) {
        ASSERT_TRUE(lookup_matches(ring, ref, h));
      }
    };
    for (const std::uint32_t node : kJoinOrder) {
      ring.add_node(node);
      members.push_back(node);
      check();
    }
    for (const std::uint32_t node : kLeaveOrder) {
      ring.remove_node(node);
      members.erase(std::find(members.begin(), members.end(), node));
      check();
    }
  }
}

TEST(HashRing, MetadataChargesTheBucketTable) {
  // 4 nodes x 64 points: 16 bytes a point, 4 a member, and 4 for each of
  // the 1024 arcs' table entries plus the trailing one.
  const HashRing ring = make_ring(4, 64);
  EXPECT_GE(ring.metadata_bytes(), 256 * 16 + 4 * 4 + (1024 + 1) * 4);
}

}  // namespace
}  // namespace cdn::cluster
