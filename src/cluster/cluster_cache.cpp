#include "cluster/cluster_cache.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/registry.hpp"
#include "sim/queue_cache.hpp"
#include "srv/sharded_cache.hpp"
#include "util/rng.hpp"

namespace cdn::cluster {

// ---------------------------------------------------------------------------
// HotKeyTracker

HotKeyTracker::HotKeyTracker(std::uint32_t threshold, std::uint64_t window)
    : threshold_(threshold), window_(window) {
  if (threshold_ == 0 || window_ == 0) {
    throw std::invalid_argument(
        "HotKeyTracker: threshold and window must be >= 1");
  }
}

std::uint32_t HotKeyTracker::observe_hashed(std::uint64_t id,
                                            std::uint64_t h) {
  if (observed_ == window_) roll_window();
  ++observed_;
  bool inserted = false;
  std::uint32_t* count = counts_.upsert_hashed(id, h, &inserted);
  if (inserted) *count = 0;
  ++*count;
  if (*count == threshold_) {
    // Hot keys are recorded the moment they cross the threshold, so the
    // window rollover never iterates the count table (FlatMap slot order
    // is an implementation detail no policy decision may read).
    bool hot_inserted = false;
    std::uint8_t* flag = cur_hot_.upsert_hashed(id, h, &hot_inserted);
    *flag = 1;
  }
  return *count;
}

void HotKeyTracker::roll_window() {
  prev_hot_ = std::move(cur_hot_);
  cur_hot_ = FlatMap<std::uint64_t, std::uint8_t>{};
  counts_.clear();  // keeps capacity: no rehash churn at window boundaries
  observed_ = 0;
}

std::uint64_t HotKeyTracker::metadata_bytes() const noexcept {
  using CountMap = FlatMap<std::uint64_t, std::uint32_t>;
  using HotMap = FlatMap<std::uint64_t, std::uint8_t>;
  return counts_.capacity() * CountMap::kSlotBytes +
         (cur_hot_.capacity() + prev_hot_.capacity()) * HotMap::kSlotBytes;
}

// ---------------------------------------------------------------------------
// ClusterCache

namespace {

std::function<CachePtr(std::uint64_t, std::size_t)> registry_factory(
    const ClusterCacheConfig& config) {
  const std::string policy = config.policy;
  const std::uint64_t seed = config.seed;
  return [policy, seed](std::uint64_t capacity, std::size_t node) {
    return make_cache(policy, capacity, seed + node);
  };
}

}  // namespace

ClusterCache::ClusterCache(const ClusterCacheConfig& config)
    : ClusterCache(config, registry_factory(config)) {}

ClusterCache::ClusterCache(
    const ClusterCacheConfig& config,
    std::function<CachePtr(std::uint64_t, std::size_t)> make_node_cache)
    : Cache(config.capacity_bytes),
      policy_(config.policy),
      backing_name_(config.backing),
      replicas_(config.replicas),
      replicate_hot_(config.replicate_hot),
      initial_share_(config.nodes == 0
                         ? 0
                         : srv::ShardedCache::shard_capacity(
                               config.capacity_bytes, config.nodes, 0)),
      latency_(config.latency),
      factory_(std::move(make_node_cache)),
      schedule_(config.schedule),
      ring_(config.vnodes_per_node),
      tracker_(config.hot_threshold, config.hot_window) {
  validate_config(config);
  MutexLock lk(cluster_mu_);
  slots_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    slots_.push_back(make_slot(
        srv::ShardedCache::shard_capacity(config.capacity_bytes, config.nodes,
                                          i),
        id));
    ring_.add_node(id);
  }
}

ClusterCache::NodeSlot ClusterCache::make_slot(std::uint64_t capacity,
                                               std::uint32_t id) const {
  NodeSlot slot;
  slot.node = std::make_unique<Node>("node" + std::to_string(id),
                                     factory_(capacity, id));
  slot.stats = std::make_unique<NodeCounters>(
      make_backing_store(backing_name_, latency_));
  return slot;
}

void ClusterCache::validate_config(const ClusterCacheConfig& config) const {
  if (config.nodes == 0) {
    throw std::invalid_argument("ClusterCache: need at least one node");
  }
  if (config.replicas == 0 || config.replicas > kMaxReplicas) {
    throw std::invalid_argument("ClusterCache: replicas must be in [1, 8]");
  }
  if (!factory_) {
    throw std::invalid_argument("ClusterCache: node factory is required");
  }
  for (std::size_t i = 1; i < config.schedule.size(); ++i) {
    if (config.schedule[i].at_request < config.schedule[i - 1].at_request) {
      throw std::invalid_argument(
          "ClusterCache: schedule must be sorted by at_request");
    }
  }
}

std::string ClusterCache::name() const { return "cluster(" + policy_ + ")"; }

bool ClusterCache::access(const Request& req) {
  // The ONLY hash64 of this request's id anywhere on the request path; the
  // value flows through ring lookup, the node access and peer probes.
  return access_hashed(req, hash64(req.id));
}

bool ClusterCache::access_hashed(const Request& req, std::uint64_t h) {
  assert(h == hash64(req.id));
  Node* target = nullptr;
  NodeCounters* stats = nullptr;
  Node* peers[kMaxReplicas] = {};
  std::size_t peer_count = 0;
  {
    MutexLock lk(cluster_mu_);
    apply_due_events_locked();
    ++served_;
    const std::uint32_t count = tracker_.observe_hashed(req.id, h);
    const bool hot = tracker_.hot_hashed(req.id, h, count);
    std::uint32_t owners[kMaxReplicas];
    std::size_t k = 1;
    if (hot && replicas_ > 1) {
      k = ring_.owners_hashed(h, replicas_, owners);
    } else {
      owners[0] = ring_.owner_hashed(h);
    }
    // Load-forced spreading: successive requests to a hot key rotate over
    // its k owners regardless of the replication knob (a flash crowd is
    // spread for load, not as part of the experiment arm).
    const std::size_t pick =
        k > 1 ? static_cast<std::size_t>(count % k) : 0;
    const NodeSlot& slot = slots_[owners[pick]];
    target = slot.node.get();
    stats = slot.stats.get();
    if (k > 1) {
      ++hot_spread_requests_;
      if (replicate_hot_) {
        for (std::size_t i = 0; i < k; ++i) {
          if (i == pick) continue;
          peers[peer_count++] = slots_[owners[i]].node.get();
        }
      }
    }
  }

  // Node work and bookkeeping outside the cluster lock: requests to
  // different nodes only contend on the routing decision above.
  const bool hit = target->access_hashed(req, h);
  bool peer_fill = false;
  if (!hit) {
    // Cooperative peer fill: read-only probes (contains_hashed never
    // mutates), so enabling the knob cannot change any hit/miss outcome —
    // only where the miss bytes come from.
    for (std::size_t i = 0; i < peer_count && !peer_fill; ++i) {
      peer_fill = peers[i]->contains_hashed(req.id, h);
    }
  }

  MutexLock lk(stats->mu);
  FlowStats& flow = stats->flow;
  flow.record(req.size, hit);
  if (hit) return true;
  if (peer_fill) {
    ++flow.peer_fills;
    flow.peer_fill_bytes += req.size;
    const double ms = latency_.oc_to_dc_ms +
                      static_cast<double>(req.size) / latency_.dc_bandwidth;
    stats->peer_time_us +=
        static_cast<std::uint64_t>(std::llround(ms * 1000.0));
  } else {
    flow.record_origin_fetch(req.size);
    stats->backing->fetch(req.id, req.size);
  }
  return false;
}

bool ClusterCache::contains(std::uint64_t id) const {
  return contains_hashed(id, hash64(id));
}

bool ClusterCache::contains_hashed(std::uint64_t id, std::uint64_t h) const {
  MutexLock lk(cluster_mu_);
  for (const NodeSlot& s : slots_) {
    if (s.live && s.node->contains_hashed(id, h)) return true;
  }
  return false;
}

std::uint64_t ClusterCache::used_bytes() const {
  MutexLock lk(cluster_mu_);
  std::uint64_t total = 0;
  for (const NodeSlot& s : slots_) {
    if (s.live) total += s.node->snapshot().used_bytes;
  }
  return total;
}

std::uint64_t ClusterCache::metadata_bytes() const {
  MutexLock lk(cluster_mu_);
  std::uint64_t total = ring_.metadata_bytes() + tracker_.metadata_bytes() +
                        schedule_.capacity() * sizeof(MembershipEvent);
  for (const NodeSlot& s : slots_) {
    if (s.live) total += s.node->snapshot().metadata_bytes;
  }
  return total;
}

std::uint32_t ClusterCache::join() {
  MutexLock lk(cluster_mu_);
  return join_locked();
}

void ClusterCache::leave(std::uint32_t node) {
  MutexLock lk(cluster_mu_);
  leave_locked(node);
}

std::size_t ClusterCache::node_count() const {
  MutexLock lk(cluster_mu_);
  return slots_.size();
}

std::size_t ClusterCache::live_node_count() const {
  MutexLock lk(cluster_mu_);
  std::size_t live = 0;
  for (const NodeSlot& s : slots_) live += s.live ? 1 : 0;
  return live;
}

void ClusterCache::apply_due_events_locked() {
  while (next_event_ < schedule_.size() &&
         schedule_[next_event_].at_request <= served_) {
    const MembershipEvent& ev = schedule_[next_event_++];
    if (ev.kind == MembershipEvent::Kind::kJoin) {
      join_locked();
    } else {
      leave_locked(ev.node);
    }
  }
}

std::uint32_t ClusterCache::join_locked() {
  const auto id = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(make_slot(initial_share_, id));
  ring_.add_node(id);
  // Pull phase: only residents whose owner changed to the joiner (the
  // ring-adjacent arcs its points claimed, expected 1/N of the key space)
  // move; everything else keeps its placement.
  for (std::uint32_t from = 0; from + 1 < slots_.size(); ++from) {
    if (!slots_[from].live) continue;
    transfer_locked(residents_of_locked(from), id,
                    /*restrict_to_new_owner=*/true);
  }
  return id;
}

void ClusterCache::leave_locked(std::uint32_t node) {
  if (node >= slots_.size() || !slots_[node].live) {
    throw std::invalid_argument("ClusterCache::leave: node is not live");
  }
  std::size_t live = 0;
  for (const NodeSlot& s : slots_) live += s.live ? 1 : 0;
  if (live <= 1) {
    throw std::invalid_argument(
        "ClusterCache::leave: cannot retire the last live node");
  }
  // Drain the leaver's residents BEFORE retiring it from the ring would be
  // wrong: ownership must be recomputed on the post-leave ring, so retire
  // first, then transfer each resident to its new owner (the arc's
  // clockwise successor). The retired slot keeps its Node alive — in-flight
  // concurrent accesses may still hold its pointer — but it is excluded
  // from the ring, routing, and live stats from here on.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> residents =
      residents_of_locked(node);
  slots_[node].live = false;
  ring_.remove_node(node);
  transfer_locked(residents, /*only_new_owner=*/0,
                  /*restrict_to_new_owner=*/false);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
ClusterCache::residents_of_locked(std::uint32_t from) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  // Enumeration order is LRU -> MRU, so re-inserting in this order
  // reproduces the source's recency order at the destination (the last
  // transfer lands at MRU). Non-queue policies expose no enumeration and
  // hand off cold (their objects re-fetch on first access).
  slots_[from].node->with_cache([&out](Cache& c) {
    if (const auto* qc = dynamic_cast<const QueueCache*>(&c)) {
      qc->audit_queue().for_each_from_lru(
          [&out](const LruQueue::Node& n) {
            out.emplace_back(n.id, n.size);
            return true;
          });
    }
  });
  return out;
}

void ClusterCache::transfer_locked(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& objects,
    std::uint32_t only_new_owner, bool restrict_to_new_owner) {
  for (const auto& [id, size] : objects) {
    const std::uint64_t h = hash64(id);
    const std::uint32_t owner = ring_.owner_hashed(h);
    if (restrict_to_new_owner && owner != only_new_owner) continue;
    // Warm transfer: the object enters the new owner through its policy's
    // normal admission path (so SCIP's advisor, LIP's LRU insertion etc.
    // see it), marked as one access. The source copy is not erased — the
    // Cache API has no erase; a stale copy simply ages out of its queue.
    Request req;
    req.id = id;
    req.size = size;
    NodeSlot& dest = slots_[owner];
    dest.node->access_hashed(req, h);
    ++dest.migrated_in_keys;
    dest.migrated_in_bytes += size;
  }
}

std::vector<ClusterNodeStats> ClusterCache::node_stats() const {
  MutexLock lk(cluster_mu_);
  std::vector<ClusterNodeStats> out;
  out.reserve(slots_.size());
  for (const NodeSlot& s : slots_) {
    ClusterNodeStats ns;
    ns.name = s.node->name();
    ns.live = s.live;
    ns.shard = s.node->snapshot();
    ns.migrated_in_keys = s.migrated_in_keys;
    ns.migrated_in_bytes = s.migrated_in_bytes;
    const NodeCounters& c = *s.stats;
    MutexLock stats_lk(c.mu);
    static_cast<FlowStats&>(ns.shard) = c.flow;
    ns.origin_time_us = c.backing->stats().total_us;
    ns.peer_time_us = c.peer_time_us;
    out.push_back(std::move(ns));
  }
  return out;
}

ClusterTotals ClusterCache::totals() const {
  MutexLock lk(cluster_mu_);
  ClusterTotals t;
  t.hot_spread_requests = hot_spread_requests_;
  for (const NodeSlot& s : slots_) {
    t.migrated_keys += s.migrated_in_keys;
    t.migrated_bytes += s.migrated_in_bytes;
    const NodeCounters& c = *s.stats;
    MutexLock stats_lk(c.mu);
    t += c.flow;
    t.origin_time_us += c.backing->stats().total_us;
    t.peer_time_us += c.peer_time_us;
  }
  return t;
}

BackingStoreStats ClusterCache::backing_stats() const {
  MutexLock lk(cluster_mu_);
  BackingStoreStats sum;
  for (const NodeSlot& s : slots_) {
    MutexLock stats_lk(s.stats->mu);
    const BackingStoreStats& b = s.stats->backing->stats();
    sum.fetches += b.fetches;
    sum.bytes += b.bytes;
    sum.total_us += b.total_us;
  }
  return sum;
}

std::vector<std::uint32_t> ClusterCache::owners_of(std::uint64_t id) const {
  MutexLock lk(cluster_mu_);
  std::uint32_t owners[kMaxReplicas];
  const std::size_t k = ring_.owners_hashed(hash64(id), replicas_, owners);
  return std::vector<std::uint32_t>(owners, owners + k);
}

bool ClusterCache::node_contains(std::uint32_t node, std::uint64_t id) const {
  MutexLock lk(cluster_mu_);
  if (node >= slots_.size()) return false;
  return slots_[node].node->contains_hashed(id, hash64(id));
}

void ClusterCache::with_node_cache(std::uint32_t node,
                                   const std::function<void(Cache&)>& fn) {
  Node* n = nullptr;
  {
    MutexLock lk(cluster_mu_);
    if (node >= slots_.size()) {
      throw std::invalid_argument("ClusterCache: no such node");
    }
    n = slots_[node].node.get();
  }
  // Outside cluster_mu_: fn may be O(residents) and only needs the node
  // lock (Node pointers stay valid for the cluster's lifetime).
  n->with_cache(fn);
}

}  // namespace cdn::cluster
