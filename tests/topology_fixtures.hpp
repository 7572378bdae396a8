// Fixtures shared by the tier-topology suites: test_tdc (the TDC chain of
// Fig. 6) and test_cache_network (cache trees and the analytical
// cross-check). Both build `cluster::Topology` specs from these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "core/registry.hpp"
#include "policies/replacement/lru.hpp"
#include "util/rng.hpp"

namespace cdn::cluster::fixtures {

inline std::vector<CachePtr> lru_nodes(std::size_t n,
                                       std::uint64_t capacity) {
  std::vector<CachePtr> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<LruCache>(capacity));
  }
  return nodes;
}

/// A tree tier of registry-built nodes. Node j gets the seed a recursive
/// tree spec gives its preorder node `preorder[j]` (root = 0):
/// seed ^ hash64(preorder + 1), so two RANDOM nodes never share a victim
/// stream.
inline Tier tree_tier(Placement placement, const std::string& policy,
                      std::uint64_t capacity, std::uint64_t seed,
                      std::initializer_list<std::uint64_t> preorder) {
  Tier tier;
  tier.placement = placement;
  for (const std::uint64_t p : preorder) {
    tier.nodes.push_back(make_cache(policy, capacity, seed ^ hash64(p + 1)));
  }
  return tier;
}

}  // namespace cdn::cluster::fixtures
