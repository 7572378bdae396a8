// ClusterCache: a simulated multi-node CDN cluster behind the Cache API.
//
// N registry-constructed policy nodes (SCIP included) sit behind a
// consistent-hash ring (cluster/hash_ring.hpp). A request hashes its id
// exactly once — `access()` computes hash64(req.id) and threads it through
// ring lookup, the owning node's `access_hashed`, and every replication
// probe (the PR-6 hash-once discipline, pinned by test_cluster_cache).
//
// Hot-key replication. A ShadowMonitor-style windowed counter
// (HotKeyTracker) classifies keys whose observed request rate crosses
// `hot_threshold` within `hot_window` requests as hot. Hot keys are
// *load-spread* across the first k = min(replicas, live nodes) distinct
// ring successors — request `count % k` picks the serving owner — in BOTH
// replication arms: a flash crowd must be spread for load reasons (no
// single node absorbs it), so spreading is not the experiment knob. The
// `replicate_hot` knob controls *cooperative peer fill* (ICP-style sibling
// probing): on a miss at a spread owner, the other owners are probed with
// `contains_hashed`; if one holds the object the fill is an intra-cluster
// transfer instead of an origin fetch. Peer probes never mutate any node,
// so hit/miss sequences are bitwise identical between the two arms — only
// the attribution of miss bytes (peer vs origin) differs, which makes
// "replication reduces BTO bandwidth" a deterministic comparison.
//
// Membership. `join()` adds a node (capacity equal to an initial share,
// seed = config seed + node id) and `leave()` retires one; both perform
// incremental warm-transfer rebalancing: only residents whose ring owner
// changed (ring-adjacent ranges, expected 1/N of the key space) are
// re-inserted into their new owner via `access_hashed`. The old copy is
// not erased — the Cache API has no erase, and a stale replica simply ages
// out of its LRU queue (on leave, the retired node is excluded from the
// ring and stats but its object stays alive, so in-flight concurrent
// accesses never dangle). Deterministic churn scenarios drive membership
// through `ClusterCacheConfig::schedule`: events fire inside `access()`
// when the served-request counter reaches `at_request`, so a single-driver
// replay reproduces the exact same join/leave points every run.
//
// Misses that no owner can serve go to the pluggable BackingStore
// ("origin" / "remote" / "null") — the BTO byte counter of the paper. Each
// node owns its own store, so origin accounting is per node like every
// other request counter.
//
// Locking: cluster_mu_ guards the routing state (ring, tracker, schedule,
// served count, slot table, migration counters) and is taken exactly once
// per request, for the routing decision. Node mutexes (cluster/node.hpp)
// guard each policy instance; each node's NodeCounters::mu guards that
// node's request counters and backing store. The request path holds no two
// of these at once: route under cluster_mu_, release, then the node mutex,
// then the target's stats mutex. The nesting orders are cluster_mu_ ->
// node mutex (migration, snapshots) and cluster_mu_ -> stats mutex
// (totals / node_stats / backing_stats readers); nothing ever acquires
// cluster_mu_ while holding another lock — no cycle exists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/backing_store.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/latency_model.hpp"
#include "cluster/node.hpp"
#include "sim/cache.hpp"
#include "sim/flow_stats.hpp"
#include "srv/shard_stats.hpp"
#include "util/flat_map.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace cdn::cluster {

/// Deterministic membership change, applied inside access() immediately
/// before serving request index `at_request` (0-based, counted across the
/// cluster). Joins ignore `node` (the new node takes the next free id);
/// leaves retire the given node id.
struct MembershipEvent {
  enum class Kind : std::uint8_t { kJoin, kLeave };

  std::uint64_t at_request = 0;
  Kind kind = Kind::kJoin;
  std::uint32_t node = 0;
};

struct ClusterCacheConfig {
  std::string policy = "SCIP";  ///< registry name (core/registry.hpp)
  /// Total capacity split over the initial nodes (srv shard_capacity
  /// spread); later joiners each get an initial node-0 share.
  std::uint64_t capacity_bytes = 1ULL << 30;
  std::size_t nodes = 4;             ///< initial node count
  std::size_t vnodes_per_node = 64;  ///< ring points per node
  std::size_t replicas = 2;          ///< k-way ownership for hot keys
  bool replicate_hot = true;         ///< cooperative peer fill on miss
  std::uint32_t hot_threshold = 64;  ///< window count that makes a key hot
  std::uint64_t hot_window = 8192;   ///< tracker window, in requests
  /// Seed for node 0; node i gets seed + i. With one node this matches
  /// make_cache(policy, capacity, seed) exactly (the golden cross-check).
  std::uint64_t seed = 1;
  std::string backing = "origin";  ///< "origin" | "remote" | "null"
  LatencyModel latency{};
  /// Must be sorted by at_request (validated at construction).
  std::vector<MembershipEvent> schedule;
};

/// Windowed hot-key detector in the ShadowMonitor mold: per-key request
/// counts over a fixed request window, plus the previous window's hot set
/// so hotness does not flicker to cold at every window boundary. All
/// probes take the caller's precomputed hash64(id).
class HotKeyTracker {
 public:
  HotKeyTracker(std::uint32_t threshold, std::uint64_t window);

  /// Records one request; returns the key's count in the current window
  /// (including this request). Rolls the window first when it is full.
  std::uint32_t observe_hashed(std::uint64_t id, std::uint64_t h);

  /// Hot = reached the threshold this window, or was hot last window.
  /// `count` is the value observe_hashed just returned for this request.
  [[nodiscard]] bool hot_hashed(std::uint64_t id, std::uint64_t h,
                                std::uint32_t count) const {
    return count >= threshold_ || prev_hot_.find_hashed(id, h) != nullptr;
  }

  [[nodiscard]] std::uint32_t threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept;

 private:
  void roll_window();

  std::uint32_t threshold_;
  std::uint64_t window_;
  std::uint64_t observed_ = 0;  ///< requests in the current window
  FlatMap<std::uint64_t, std::uint32_t> counts_;
  FlatMap<std::uint64_t, std::uint8_t> cur_hot_;   ///< crossed threshold now
  FlatMap<std::uint64_t, std::uint8_t> prev_hot_;  ///< hot set last window
};

/// Per-node statistics: the srv ShardStats record (capacity/used/metadata
/// from the node snapshot, FlowStats counters from the node's request
/// path) plus the modeled fill times and migration counters. Summed over
/// every node (retired ones included) they give ClusterTotals.
struct ClusterNodeStats {
  std::string name;
  bool live = true;
  srv::ShardStats shard;
  std::uint64_t origin_time_us = 0;  ///< this node's backing-store time
  std::uint64_t peer_time_us = 0;
  std::uint64_t migrated_in_keys = 0;
  std::uint64_t migrated_in_bytes = 0;
};

/// Cluster-wide sums. Flow conservation holds by construction and is
/// re-checked in tests: requests == hits + peer_fills + origin_fetches.
struct ClusterTotals : FlowStats {
  std::uint64_t origin_time_us = 0;  ///< modeled, integer microseconds
  std::uint64_t peer_time_us = 0;    ///< modeled, integer microseconds
  std::uint64_t migrated_keys = 0;
  std::uint64_t migrated_bytes = 0;
  std::uint64_t hot_spread_requests = 0;  ///< requests routed by rotation

  bool operator==(const ClusterTotals&) const = default;
};

/// Field-wise equality — the bitwise rerun-determinism gate for cluster
/// sweeps (bench_cluster runs every configuration twice).
[[nodiscard]] inline bool deterministic_equal(const ClusterTotals& a,
                                              const ClusterTotals& b) noexcept {
  return a == b;
}

class ClusterCache final : public Cache {
 public:
  /// Builds every node through the policy registry.
  explicit ClusterCache(const ClusterCacheConfig& config);

  /// Builds nodes through a custom factory (capacity, node index) — used
  /// by tests to instrument node construction and pin the hash-once
  /// discipline; `config.policy` is then only used for name().
  ClusterCache(const ClusterCacheConfig& config,
               std::function<CachePtr(std::uint64_t, std::size_t)>
                   make_node_cache);

  // Cache interface (thread-safe).
  [[nodiscard]] std::string name() const override;
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override
      CDN_EXCLUDES(cluster_mu_);
  /// True if any live node holds the object (audit semantics, not a
  /// routing probe).
  [[nodiscard]] bool contains(std::uint64_t id) const override;
  [[nodiscard]] bool contains_hashed(std::uint64_t id, std::uint64_t h)
      const override CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] std::uint64_t used_bytes() const override
      CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] std::uint64_t metadata_bytes() const override
      CDN_EXCLUDES(cluster_mu_);

  /// Adds a node (next free id) with an initial node-0 capacity share and
  /// warm-transfers the ring ranges it now owns. Returns the new node id.
  std::uint32_t join() CDN_EXCLUDES(cluster_mu_);

  /// Retires node `node` and warm-transfers its residents to their new
  /// owners. Throws if the node is not live or is the last live node.
  void leave(std::uint32_t node) CDN_EXCLUDES(cluster_mu_);

  [[nodiscard]] std::size_t node_count() const CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] std::size_t live_node_count() const
      CDN_EXCLUDES(cluster_mu_);

  /// Per-node stats (index == node id, retired nodes included with
  /// live == false). Each node's record is read under its own stats lock,
  /// so it is self-consistent; while drivers run, the records (and the
  /// sums in totals() and backing_stats()) are not one atomic cut across
  /// nodes. Once access() calls have returned they are exact.
  [[nodiscard]] std::vector<ClusterNodeStats> node_stats() const
      CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] ClusterTotals totals() const CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] BackingStoreStats backing_stats() const
      CDN_EXCLUDES(cluster_mu_);

  // Test/audit helpers (not request-path API; each hashes internally).
  /// Current replica owner list for `id` at the configured k.
  [[nodiscard]] std::vector<std::uint32_t> owners_of(std::uint64_t id) const
      CDN_EXCLUDES(cluster_mu_);
  /// Residency probe against one specific node.
  [[nodiscard]] bool node_contains(std::uint32_t node, std::uint64_t id)
      const CDN_EXCLUDES(cluster_mu_);
  /// Runs `fn` over node `node`'s policy instance under that node's lock —
  /// structural audits (audit::Inspector over the node's LRU queue) and
  /// residency enumeration in tests. Throws on an out-of-range node id.
  void with_node_cache(std::uint32_t node,
                       const std::function<void(Cache&)>& fn)
      CDN_EXCLUDES(cluster_mu_);

  static constexpr std::size_t kMaxReplicas = 8;

 private:
  /// One node's request-path bookkeeping under its own lock, so requests
  /// served by different nodes never share a critical section. Heap-held
  /// (slots_ grows on join while the request path holds this pointer
  /// outside cluster_mu_) and cache-line aligned, so two nodes' counters
  /// never share a line.
  struct alignas(64) NodeCounters {
    explicit NodeCounters(BackingStorePtr store) : backing(std::move(store)) {}

    mutable Mutex mu;
    FlowStats flow CDN_GUARDED_BY(mu);
    std::uint64_t peer_time_us CDN_GUARDED_BY(mu) = 0;
    BackingStorePtr backing CDN_PT_GUARDED_BY(mu);
  };

  struct NodeSlot {
    /// Owning pointers; the Node and its counters outlive every membership
    /// change (leave only marks the slot dead), so raw pointers resolved
    /// under cluster_mu_ stay valid after the lock is released.
    std::unique_ptr<Node> node;
    std::unique_ptr<NodeCounters> stats;
    bool live = true;
    /// Written only by membership changes, which hold cluster_mu_.
    std::uint64_t migrated_in_keys = 0;
    std::uint64_t migrated_in_bytes = 0;
  };

  /// Builds node `id`: its policy instance, counters and backing store.
  [[nodiscard]] NodeSlot make_slot(std::uint64_t capacity,
                                   std::uint32_t id) const;
  void validate_config(const ClusterCacheConfig& config) const;
  /// Fires every schedule event due at the current served count.
  void apply_due_events_locked() CDN_REQUIRES(cluster_mu_);
  std::uint32_t join_locked() CDN_REQUIRES(cluster_mu_);
  void leave_locked(std::uint32_t node) CDN_REQUIRES(cluster_mu_);
  /// Copies out (id, size) of every resident of `from` (queue-based
  /// policies only; others hand off cold).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  residents_of_locked(std::uint32_t from) CDN_REQUIRES(cluster_mu_);
  /// Warm-transfers `objects` to their current ring owners. With
  /// `restrict_to_new_owner`, only objects whose owner is
  /// `only_new_owner` move (the join pull phase); otherwise every object
  /// moves to whoever owns it now (the leave drain).
  void transfer_locked(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& objects,
      std::uint32_t only_new_owner, bool restrict_to_new_owner)
      CDN_REQUIRES(cluster_mu_);

  std::string policy_;
  std::string backing_name_;
  std::size_t replicas_;
  bool replicate_hot_;
  std::uint64_t initial_share_;  ///< capacity granted to later joiners
  LatencyModel latency_;
  std::function<CachePtr(std::uint64_t, std::size_t)> factory_;
  std::vector<MembershipEvent> schedule_;

  mutable Mutex cluster_mu_;
  std::vector<NodeSlot> slots_ CDN_GUARDED_BY(cluster_mu_);
  HashRing ring_ CDN_GUARDED_BY(cluster_mu_);
  HotKeyTracker tracker_ CDN_GUARDED_BY(cluster_mu_);
  std::size_t next_event_ CDN_GUARDED_BY(cluster_mu_) = 0;
  std::uint64_t served_ CDN_GUARDED_BY(cluster_mu_) = 0;
  std::uint64_t hot_spread_requests_ CDN_GUARDED_BY(cluster_mu_) = 0;
};

}  // namespace cdn::cluster
