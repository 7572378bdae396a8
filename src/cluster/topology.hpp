// Topology: a stack of tiers of locked cache nodes (cluster/node.hpp) from
// the edge to the root, in front of the origin. The TDC chain of the
// paper's Fig. 6 (user -> OC -> DC -> origin, Figure 2), the leave-copy-
// everywhere cache trees checked against the closed forms of Gallo et al.
// (PAPERS.md; sim/network_analytic.hpp) and the lock-striped service (one
// salt-0 tier: node i holds the ids with hash64(id) % N == i) are all
// Topology specs.
//
// A request enters tier 0 and walks rootward on miss; every tier it
// crosses admits the object through its own policy. Each tier picks the
// node that serves a request with one placement:
//  * kSaltedMod  — route_mod(id, salt, nodes) (cluster/routing.hpp): the
//                  TDC chain's OC and DC tiers, salts kOcRouteSalt and
//                  kDcRouteSalt, and the striped service's salt-0 tier;
//  * kRoundRobin — request index % nodes: a tree's entry tier, so every
//                  leaf sees the global popularity law (the homogeneous-tree
//                  model the analytical oracle assumes);
//  * kChildBlock — node `child * nodes / child_nodes` for a request that
//                  missed node `child` of the tier below: a tree's parents,
//                  each owning one contiguous block of children.
// hash64(id) is computed once per request and forwarded to every node's
// policy; a salt-0 tier routes on it directly. Each node books its own
// flow in the critical section that runs its policy; every miss at the
// root tier is an origin fetch, so stats() derives the root's origin
// counters from its misses. replay() prices them.
//
// Concurrency: the tiers are immutable after construction and every node
// locks itself, so serve(), the Cache interface and access_batch() are
// thread-safe with no topology-wide lock. access() draws request indices
// from a relaxed atomic only when some tier is kRoundRobin. prefetch()
// hints the edge node of a salted-mod edge tier under that node's
// try-lock; a batch run hints its own requests ahead inside its lock hold.
//
// Determinism: a single-threaded replay is a pure function of (tiers,
// trace). A one-node tier behaves exactly like its policy at full
// capacity; with N nodes each node sees, in order, the subsequence of
// requests routed to it. Concurrent drivers change only the interleaving.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/routing.hpp"
#include "sim/cache.hpp"
#include "sim/flow_stats.hpp"
#include "trace/request.hpp"
#include "util/attr.hpp"

namespace cdn::cluster {

enum class Placement : std::uint8_t { kSaltedMod, kRoundRobin, kChildBlock };

struct Tier {
  Placement placement = Placement::kSaltedMod;
  std::uint64_t salt = 0;  ///< kSaltedMod only
  std::vector<CachePtr> nodes;
};

class Topology final : public Cache {
 public:
  /// `tiers` run from the edge (index 0) to the root; each cache becomes a
  /// Node. Throws std::invalid_argument if there are no tiers, a tier has
  /// no nodes or a null node, or the edge tier is kChildBlock. Capacity is
  /// the sum over all nodes.
  explicit Topology(std::vector<Tier> tiers);

  /// Node of tier `t` serving request number `index` with id `id` that
  /// missed node `child` of tier t - 1 (`child` is ignored at the edge).
  [[nodiscard]] std::size_t place(std::size_t t, std::uint64_t id,
                                  std::uint64_t index,
                                  std::size_t child) const;

  /// Serves request number `index`. Returns the tier that hit, or
  /// tier_count() when every tier missed and the origin served it.
  std::size_t serve(const Request& req, std::uint64_t index);

  // Cache interface. access() is true when any tier hit; contains() probes
  // the owning node of a salted-mod tier and every node of other tiers.
  [[nodiscard]] std::string name() const override { return name_; }
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override;
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override;
  /// Hints the edge node of a salted-mod edge tier (Node's try-lock
  /// hint). A round-robin edge tier gets no hint: its node depends on a
  /// request index the hint does not know.
  void prefetch(std::uint64_t id) const noexcept override;
  void prefetch_hashed(std::uint64_t id,
                       std::uint64_t h) const noexcept override;
  [[nodiscard]] std::uint64_t used_bytes() const override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  /// access() over `n` requests, writing each verdict to `hits_out[i]`.
  /// Tier by tier, the requests still unserved are grouped by node with a
  /// stable counting sort and each node serves its run in input order
  /// under one lock hold; a tier's misses, in input order, are the next
  /// tier's batch. So every node sees the requests of sequential access()
  /// calls in the same order, and the result equals them. `first_node`
  /// rotates the node visit order (worker w passes w so concurrent batches
  /// start on different nodes); it changes the locking schedule only.
  CDN_HOT void access_batch(const Request* reqs, std::size_t n,
                            bool* hits_out, std::size_t first_node = 0);

  [[nodiscard]] std::size_t tier_count() const noexcept {
    return tiers_.size();
  }
  [[nodiscard]] std::size_t node_count(std::size_t t) const {
    return tiers_[t].nodes.size();
  }
  /// Node `node` of tier `t`, read in its critical section; at the root
  /// tier every miss is booked as an origin fetch.
  [[nodiscard]] NodeStats stats(std::size_t t, std::size_t node) const;
  /// Sum of the node records of tier `t`.
  [[nodiscard]] NodeStats tier_stats(std::size_t t) const;
  /// Runs `fn` over node `node`'s policy under that node's lock, booking
  /// nothing: structural audits in tests.
  void with_node_cache(std::size_t t, std::size_t node,
                       const std::function<void(Cache&)>& fn);

 private:
  struct NodeTier {
    Placement placement;
    std::uint64_t salt;
    std::vector<std::unique_ptr<Node>> nodes;
  };

  /// place() with the precomputed hash64(id).
  [[nodiscard]] std::size_t place_hashed(std::size_t t, std::uint64_t id,
                                         std::uint64_t h, std::uint64_t index,
                                         std::size_t child) const;
  std::size_t serve_hashed(const Request& req, std::uint64_t index,
                           std::uint64_t h);

  std::vector<NodeTier> tiers_;
  std::string name_;
  std::size_t max_nodes_ = 0;  ///< largest tier, sizes access_batch scratch
  bool round_robin_ = false;   ///< some tier places by request index
  std::atomic<std::uint64_t> next_index_{0};
};

/// The TDC chain: `oc` nodes placed by salted mod with kOcRouteSalt in
/// front of `dc` nodes placed with kDcRouteSalt.
[[nodiscard]] std::vector<Tier> tdc_chain(std::vector<CachePtr> oc,
                                          std::vector<CachePtr> dc);

/// The lock-striped service: one salt-0 salted-mod tier of `nodes` nodes,
/// node i built by make(capacity_share(capacity, nodes, i), i).
[[nodiscard]] std::vector<Tier> striped(
    std::uint64_t capacity, std::size_t nodes,
    const std::function<CachePtr(std::uint64_t, std::size_t)>& make);

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
