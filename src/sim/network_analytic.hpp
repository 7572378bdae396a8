// Analytical miss-ratio oracle for networks of RANDOM-replacement caches
// under IRM traffic (Gallo et al., "Performance Evaluation of the Random
// Replacement Policy for Networks of Caches", PAPERS.md).
//
// Single cache: under the characteristic-time (Che-like) approximation a
// RANDOM cache of C objects behaves like a TTL cache with exponential
// lifetimes, giving per-object hit probability
//
//     h_k = q_k * T / (1 + q_k * T),
//
// where q_k is object k's request probability and the characteristic time T
// solves the occupancy constraint  sum_k h_k = C.  The per-object miss
// probability is m_k = 1 / (1 + q_k * T) and the aggregate object miss
// ratio is  sum_k q_k * m_k.
//
// Two-layer tree (homogeneous leaves feeding one root): each leaf sees the
// global popularity law, so its solution is the single-cache one at the
// leaf capacity. Under Gallo's independence approximation the root's
// arrival stream is IRM with per-object rates proportional to q_k * m_k
// (the leaves' miss streams superposed); renormalizing those rates and
// solving the same fixed point at the root capacity yields the root layer's
// per-object and aggregate miss ratios.
//
// test_cache_network replays unit-size Zipf IRM traces through tree-shaped
// cluster::Topology specs and pins the per-tier miss ratios against these
// values at depth 1 and 2.
#pragma once

#include <cstddef>
#include <vector>

namespace cdn::net {

/// Fixed-point solution for one RANDOM cache layer.
struct RndLayerSolution {
  double characteristic_time = 0.0;  ///< T, in requests
  double miss_ratio = 1.0;           ///< sum_k q_k * m_k
  std::vector<double> hit_prob;      ///< h_k per object (popularity order)
};

/// Solves the occupancy fixed point for a RANDOM cache holding
/// `cache_objects` unit-size objects under popularity `weights`
/// (unnormalized; normalized internally). Requires 0 < cache_objects <
/// weights.size(); solved by bisection on T (the occupancy sum is strictly
/// increasing in T).
[[nodiscard]] RndLayerSolution solve_rnd_layer(
    const std::vector<double>& weights, double cache_objects);

/// Two-layer homogeneous tree solution.
struct RndTreeSolution {
  RndLayerSolution leaf;  ///< any one leaf (they are exchangeable)
  RndLayerSolution root;  ///< over the renormalized leaf-miss stream
  double leaf_miss_ratio = 1.0;    ///< leaf-layer aggregate miss ratio
  double root_miss_ratio = 1.0;    ///< root misses / root requests
  double system_miss_ratio = 1.0;  ///< origin requests / total requests
};

/// Solves the two-layer tree: leaves of `leaf_objects` capacity (all seeing
/// the global law `weights`) under a root of `root_objects` capacity.
[[nodiscard]] RndTreeSolution solve_rnd_tree2(
    const std::vector<double>& weights, double leaf_objects,
    double root_objects);

}  // namespace cdn::net
