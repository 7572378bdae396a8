// Topology: a deterministic stack of cache tiers from the edge to the root,
// in front of the origin — the TDC chain of the paper's Fig. 6
// (user -> OC -> DC -> origin, Figure 2) and the leave-copy-everywhere
// cache trees checked against the closed forms of Gallo et al. (PAPERS.md;
// sim/network_analytic.hpp) are both Topology specs.
//
// A request enters tier 0 and walks rootward on miss; every tier it
// crosses admits the object through its own policy's access(). Each tier
// picks the node that serves a request with one placement:
//  * kSaltedMod  — route_mod(id, salt, nodes) (cluster/routing.hpp): the
//                  TDC chain's OC and DC tiers, salts kOcRouteSalt and
//                  kDcRouteSalt;
//  * kRoundRobin — request index % nodes: a tree's entry tier, so every
//                  leaf sees the global popularity law (the homogeneous-tree
//                  model the analytical oracle assumes);
//  * kChildBlock — node `child * nodes / child_nodes` for a request that
//                  missed node `child` of the tier below: a tree's parents,
//                  each owning one contiguous block of children.
// The topology books one FlowStats per node; a miss at the root tier is
// booked as an origin fetch at the root node, so the root tier's records
// count every origin fetch and byte. replay() prices them.
//
// Single-threaded and deterministic: a replay is one pass over the trace
// in trace order, so node states, counters and the windowed result are
// pure functions of (tiers, trace) — the same run every time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/routing.hpp"
#include "sim/cache.hpp"
#include "sim/flow_stats.hpp"
#include "trace/request.hpp"

namespace cdn::cluster {

enum class Placement : std::uint8_t { kSaltedMod, kRoundRobin, kChildBlock };

struct Tier {
  Placement placement = Placement::kSaltedMod;
  std::uint64_t salt = 0;  ///< kSaltedMod only
  std::vector<CachePtr> nodes;
};

class Topology {
 public:
  /// `tiers` run from the edge (index 0) to the root. Throws
  /// std::invalid_argument if there are no tiers, a tier has no nodes or a
  /// null node, or the edge tier is kChildBlock.
  explicit Topology(std::vector<Tier> tiers);

  /// Node of tier `t` serving request number `index` with id `id` that
  /// missed node `child` of tier t - 1 (`child` is ignored at the edge).
  [[nodiscard]] std::size_t place(std::size_t t, std::uint64_t id,
                                  std::uint64_t index,
                                  std::size_t child) const;

  /// Serves request number `index` of the replay. Returns the tier that
  /// hit, or tier_count() when every tier missed and the origin served it.
  std::size_t access(const Request& req, std::uint64_t index);

  [[nodiscard]] std::size_t tier_count() const noexcept {
    return tiers_.size();
  }
  [[nodiscard]] std::size_t node_count(std::size_t t) const {
    return tiers_[t].nodes.size();
  }
  [[nodiscard]] const FlowStats& stats(std::size_t t, std::size_t node) const {
    return stats_[t][node];
  }
  /// Sum of the node records of tier `t`.
  [[nodiscard]] FlowStats tier_stats(std::size_t t) const;
  [[nodiscard]] const Cache& cache_at(std::size_t t, std::size_t node) const {
    return *tiers_[t].nodes[node];
  }

 private:
  std::vector<Tier> tiers_;
  std::vector<std::vector<FlowStats>> stats_;  ///< parallel to tiers_
};

/// The TDC chain: `oc` nodes placed by salted mod with kOcRouteSalt in
/// front of `dc` nodes placed with kDcRouteSalt.
[[nodiscard]] std::vector<Tier> tdc_chain(std::vector<CachePtr> oc,
                                          std::vector<CachePtr> dc);

/// One-minute monitoring windows.
inline constexpr double kWindowMs = 60'000.0;

/// One monitoring window of a replay, or a whole run: the flow at each
/// tier summed over its nodes, plus the modeled user latency.
struct FlowWindow {
  std::uint64_t index = 0;  ///< kWindowMs windows since the earliest request
  std::vector<FlowStats> tiers;  ///< index 0 = edge
  double latency_ms_sum = 0.0;

  /// Requests (and bytes) users sent: everything enters the edge tier.
  [[nodiscard]] std::uint64_t requests() const {
    return tiers.front().requests;
  }
  [[nodiscard]] std::uint64_t bytes_requested() const {
    return tiers.front().bytes_total;
  }
  /// Bytes fetched from the origin ("Backing To Origin").
  [[nodiscard]] std::uint64_t bto_bytes() const {
    return tiers.back().origin_bytes;
  }
  /// The paper's BTO ratio (§5.2: byte granularity, since it maps 1:1 to
  /// bandwidth cost).
  [[nodiscard]] double bto_ratio() const {
    return ratio_or_zero(bto_bytes(), bytes_requested());
  }
  /// BTO bandwidth over one window.
  [[nodiscard]] double bto_gbps() const {
    return static_cast<double>(bto_bytes()) * 8.0 / (kWindowMs * 1e6);
  }
  [[nodiscard]] double mean_latency_ms() const {
    return ratio_or_zero(latency_ms_sum, requests());
  }
};

struct ReplayResult {
  double start_ms = 0.0;  ///< the trace's earliest request time
  /// Windows that saw at least one request, in time order. Window w covers
  /// [start_ms + w * kWindowMs, start_ms + (w + 1) * kWindowMs), so there
  /// are never more windows than requests, whatever the times span or
  /// their order.
  std::vector<FlowWindow> windows;
  FlowWindow total;  ///< whole run

  /// BTO bandwidth averaged over the non-empty windows.
  [[nodiscard]] double mean_bto_gbps() const {
    return ratio_or_zero(static_cast<double>(total.bto_bytes()) * 8.0,
                         kWindowMs * static_cast<double>(windows.size()) * 1e6);
  }
};

/// Replays `trace` through `topo` in trace order (request i has index i)
/// and sums the flow per kWindowMs window. The default LatencyModel
/// prices each request by where it was served: the edge tier (oc_hit_ms),
/// a deeper tier (dc_hit_ms) or the origin (origin_ms).
[[nodiscard]] ReplayResult replay(Topology& topo, const Trace& trace);

}  // namespace cdn::cluster
