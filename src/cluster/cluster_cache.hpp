// ClusterCache: a simulated multi-node CDN cluster behind the Cache API.
//
// N registry-constructed policy nodes (SCIP included; cluster/node.hpp)
// sit behind a consistent-hash ring (cluster/hash_ring.hpp). A request
// hashes its id exactly once — `access()` computes hash64(req.id) and
// threads it through ring lookup, the owning node's `serve` (the policy's
// `access_hashed`), and every replication probe (the hash-once
// discipline, pinned by test_cluster_cache).
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
// re-inserted into their new owner via `access_hashed`, victims first as
// Cache::for_each_resident lists them. The old copy is
// not erased — the Cache API has no erase, and a stale replica simply ages
// out of its LRU queue (on leave, the retired node is excluded from the
// ring and stats but its object stays alive, so in-flight concurrent
// accesses never dangle). Deterministic churn scenarios drive membership
// through `ClusterCacheConfig::schedule`: events fire inside `access()`
// when the request index reaches `at_request`, so a single-driver replay
// reproduces the exact same join/leave points every run.
//
// Misses that no owner can serve are fetched from the origin: the BTO
// bytes of the paper.
//
// Bookkeeping: each node (cluster/node.hpp) keeps one record. It books a
// request's requests, hits and bytes in the critical section that runs its
// policy, and a peer-probed miss that a peer held as a peer fill
// (Node::record_peer_fill) after the probes. The cluster sits in front of
// the origin, so every other miss was an origin fetch: node_stats() derives
// each node's origin counters from its record
// (FlowStats::derive_origin_fetches) and totals() sums the nodes. Warm
// transfers are not requests and book nothing.
//
// Locking: the request path takes no cluster-wide lock. It takes its
// index from an atomic counter, routes on an immutable Route snapshot (the
// ring plus the node table) read with one acquire load, and
// counts its key under one of the tracker's 64 shard locks. cluster_mu_
// guards membership: the slot table, the published routes, the schedule
// cursor and the migration counters. The constructor, join(), leave() and
// schedule events build a new Route under it and publish it; every route
// stays alive until the cluster is destroyed, so readers need no epochs.
// A request whose index reaches the next event's at_request takes
// cluster_mu_ and fires every due event first; routes are published
// before the next event's index, so any request at or past an event's
// index routes on the ring that event published. After routing, the
// request takes the node mutex once; hits and unprobed misses are done
// there. Only a miss of a spread hot key with replicate_hot on then probes
// peers (one node mutex at a time) and, when a peer holds the object,
// takes the serving node's mutex again to book the fill. The request path
// never holds two locks at once, and the tracker shard lock never nests.
// The one nesting order is cluster_mu_ -> node mutex (migration and the
// stats readers); nothing acquires cluster_mu_ while holding another lock —
// no cycle exists.
//
// Prefetch hints: prefetch() hashes the id once and hints its primary owner
// on the current route, under that node's try-lock (Node::prefetch_hashed),
// so a hint never waits. A thread hints only after a run of requests that
// took consecutive indices (no other driver served one in between): under
// concurrent drivers a hint moves the node lock's line to the hinting core
// and the hinted lines are gone before the request arrives, so there the
// hint would cost throughput and buy nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/node.hpp"
#include "sim/cache.hpp"
#include "sim/flow_stats.hpp"
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
  /// Total capacity split over the initial nodes (capacity_share in
  /// node.hpp); later joiners each get an initial node-0 share.
  std::uint64_t capacity_bytes = 1ULL << 30;
  std::size_t nodes = 4;             ///< initial node count
  std::size_t replicas = 2;          ///< k-way ownership for hot keys
  bool replicate_hot = true;         ///< cooperative peer fill on miss
  std::uint32_t hot_threshold = 64;  ///< window count that makes a key hot
  std::uint64_t hot_window = 8192;   ///< tracker window, in requests
  /// Seed for node 0; node i gets seed + i. With one node this matches
  /// make_cache(policy, capacity, seed) exactly (the golden cross-check).
  std::uint64_t seed = 1;
  /// Kept for source compatibility; accepts only "origin" (every miss no
  /// peer fills is an origin fetch).
  std::string backing = "origin";
  /// Must be sorted by at_request (validated at construction).
  std::vector<MembershipEvent> schedule;
};

/// Windowed hot-key detector in the ShadowMonitor mold: per-key request
/// counts over a fixed request window, plus the previous window's hot set
/// so hotness does not flicker to cold at every window boundary. All
/// probes take the caller's precomputed hash64(id).
///
/// The window is global: request `idx` (the cluster's served index) falls
/// in window idx / window. The state is split into kShards shards by the
/// top bits of the hash, each behind its own lock, and a shard rolls
/// lazily on its next touch: one window on it keeps last window's hot set,
/// a jump of two or more empties it (a shard left untouched for a window
/// had no hot key in it). With one driver this is exactly one global
/// window rolled at every boundary; under concurrency a request whose index
/// is older than its shard's window counts in the shard's current one.
class HotKeyTracker {
 public:
  static constexpr std::size_t kShards = 64;

  /// The count of this request's key in the current window (including
  /// the request) and whether the key is hot: it reached the threshold
  /// this window, or was hot last window.
  struct Observation {
    std::uint32_t count = 0;
    bool hot = false;
  };

  HotKeyTracker(std::uint32_t threshold, std::uint64_t window);

  /// Records request `idx` for key `id`, rolling its shard first when
  /// `idx` opened a newer window. Takes one shard lock.
  Observation observe_hashed(std::uint64_t id, std::uint64_t h,
                             std::uint64_t idx);

  [[nodiscard]] std::uint64_t metadata_bytes() const;

 private:
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::uint64_t window CDN_GUARDED_BY(mu) = 0;  ///< last window touched
    FlatMap<std::uint64_t, std::uint32_t> counts CDN_GUARDED_BY(mu);
    /// Crossed the threshold in `window`.
    FlatMap<std::uint64_t, std::uint8_t> cur_hot CDN_GUARDED_BY(mu);
    /// Hot in window - 1.
    FlatMap<std::uint64_t, std::uint8_t> prev_hot CDN_GUARDED_BY(mu);
  };

  std::uint32_t threshold_;
  std::uint64_t window_;
  std::array<Shard, kShards> shards_;
};

/// Per-node statistics: the node's snapshot (its flow, origin fetches
/// derived, and its occupancy) plus migration counters. Summed over every
/// node (retired ones included) they give ClusterTotals.
struct ClusterNodeStats {
  std::string name;
  bool live = true;
  NodeStats shard;
  std::uint64_t migrated_in_keys = 0;
  std::uint64_t migrated_in_bytes = 0;
};

/// Cluster-wide sums. Flow conservation, requests == hits + peer_fills +
/// origin_fetches, holds by construction: origin fetches are derived.
struct ClusterTotals : FlowStats {
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
  /// Hints the id's primary ring owner on the current route (Node's
  /// try-lock hint): the node an unspread request is served by. Hashes
  /// the id once; takes no cluster lock.
  void prefetch(std::uint64_t id) const noexcept override;
  void prefetch_hashed(std::uint64_t id,
                       std::uint64_t h) const noexcept override;
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
  /// live == false). While drivers run, the records (and the sums in
  /// totals()) are not one atomic cut across nodes, and a peer-filled miss
  /// whose fill is not booked yet reads as an origin fetch. Once access()
  /// calls have returned they are exact.
  [[nodiscard]] std::vector<ClusterNodeStats> node_stats() const
      CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] ClusterTotals totals() const CDN_EXCLUDES(cluster_mu_);

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
  struct NodeSlot {
    /// Owning pointer; the Node outlives every membership change (leave
    /// only marks the slot dead), so the raw pointers a Route holds stay
    /// valid for the cluster's lifetime.
    std::unique_ptr<Node> node;
    bool live = true;
    /// Written only by membership changes, which hold cluster_mu_.
    std::uint64_t migrated_in_keys = 0;
    std::uint64_t migrated_in_bytes = 0;
  };

  /// One immutable routing table: the ring plus each node, indexed by node
  /// id (slots_ may reallocate on join, so the request path never reads
  /// it). Never changed once published, and kept until the cluster is
  /// destroyed, so a reader needs no lock.
  struct Route {
    HashRing ring;
    std::vector<Node*> nodes;
  };

  /// Builds node `id` around its policy instance.
  [[nodiscard]] NodeSlot make_slot(std::uint64_t capacity,
                                   std::uint32_t id) const;
  void validate_config(const ClusterCacheConfig& config) const;
  /// The route requests read now.
  [[nodiscard]] const Route& route_locked() const CDN_REQUIRES(cluster_mu_) {
    return *routes_.back();
  }
  /// Publishes `ring` with the current slot table as the new route.
  void publish_locked(HashRing ring) CDN_REQUIRES(cluster_mu_);
  /// Fires every schedule event due at request index `idx`, then
  /// publishes the next event's index.
  void apply_due_events_locked(std::uint64_t idx) CDN_REQUIRES(cluster_mu_);
  /// Stores the at_request of schedule_[next_event_] (UINT64_MAX past the
  /// end) in next_event_at_.
  void publish_next_event_locked() CDN_REQUIRES(cluster_mu_);
  std::uint32_t join_locked() CDN_REQUIRES(cluster_mu_);
  void leave_locked(std::uint32_t node) CDN_REQUIRES(cluster_mu_);
  /// Copies out (id, size) of every resident of `from`, victims first
  /// (Cache::for_each_resident; a policy that cannot enumerate hands off
  /// cold).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  residents_of_locked(std::uint32_t from) CDN_REQUIRES(cluster_mu_);
  /// Warm-transfers `objects` to their owners on `ring`. With
  /// `restrict_to_new_owner`, only objects whose owner is
  /// `only_new_owner` move (the join pull phase); otherwise every object
  /// moves to whoever owns it now (the leave drain).
  void transfer_locked(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& objects,
      const HashRing& ring, std::uint32_t only_new_owner,
      bool restrict_to_new_owner) CDN_REQUIRES(cluster_mu_);

  std::string policy_;
  std::size_t replicas_;
  bool replicate_hot_;
  std::uint64_t initial_share_;  ///< capacity granted to later joiners
  std::function<CachePtr(std::uint64_t, std::size_t)> factory_;
  std::vector<MembershipEvent> schedule_;

  mutable Mutex cluster_mu_;
  std::vector<NodeSlot> slots_ CDN_GUARDED_BY(cluster_mu_);
  /// Every route ever published, oldest first; route_ is the last.
  std::vector<std::unique_ptr<const Route>> routes_
      CDN_GUARDED_BY(cluster_mu_);
  std::size_t next_event_ CDN_GUARDED_BY(cluster_mu_) = 0;

  // The request path reads these without cluster_mu_. route_ is stored
  // before next_event_at_, both under cluster_mu_, so a request that reads
  // an event's index as passed also reads the route it published.
  std::atomic<const Route*> route_{nullptr};
  /// at_request of the next unfired event; UINT64_MAX when none is left.
  std::atomic<std::uint64_t> next_event_at_{0};
  HotKeyTracker tracker_;
  /// Written by every request, so kept off the line route_ is read from.
  alignas(64) std::atomic<std::uint64_t> served_{0};
  alignas(64) std::atomic<std::uint64_t> hot_spread_requests_{0};
};

}  // namespace cdn::cluster
