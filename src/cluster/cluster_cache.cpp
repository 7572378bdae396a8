#include "cluster/cluster_cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/registry.hpp"
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

HotKeyTracker::Observation HotKeyTracker::observe_hashed(std::uint64_t id,
                                                         std::uint64_t h,
                                                         std::uint64_t idx) {
  static_assert(kShards == 64, "shard index is the top 6 hash bits");
  Shard& s = shards_[h >> 58];
  const std::uint64_t w = idx / window_;
  MutexLock lk(s.mu);
  if (w > s.window) {
    if (w == s.window + 1) {
      s.prev_hot = std::move(s.cur_hot);
    } else {
      s.prev_hot = FlatMap<std::uint64_t, std::uint8_t>{};
    }
    s.cur_hot = FlatMap<std::uint64_t, std::uint8_t>{};
    s.counts.clear();  // keeps capacity: no rehash churn at window boundaries
    s.window = w;
  }
  bool inserted = false;
  std::uint32_t* count = s.counts.upsert_hashed(id, h, &inserted);
  if (inserted) *count = 0;
  ++*count;
  if (*count == threshold_) {
    // Hot keys are recorded the moment they cross the threshold, so the
    // window rollover never iterates the count table (FlatMap slot order
    // is an implementation detail no policy decision may read).
    bool hot_inserted = false;
    std::uint8_t* flag = s.cur_hot.upsert_hashed(id, h, &hot_inserted);
    *flag = 1;
  }
  return {*count, *count >= threshold_ ||
                      s.prev_hot.find_hashed(id, h) != nullptr};
}

std::uint64_t HotKeyTracker::metadata_bytes() const {
  using CountMap = FlatMap<std::uint64_t, std::uint32_t>;
  using HotMap = FlatMap<std::uint64_t, std::uint8_t>;
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    MutexLock lk(s.mu);
    total += sizeof(Shard) + s.counts.capacity() * CountMap::kSlotBytes +
             (s.cur_hot.capacity() + s.prev_hot.capacity()) *
                 HotMap::kSlotBytes;
  }
  return total;
}

// ---------------------------------------------------------------------------
// ClusterCache

namespace {

/// The calling thread's run of consecutive request indices on one cluster:
/// `run` counts its latest requests whose index followed its previous one,
/// i.e. no other driver's request came in between. Thread-local, so
/// reading and updating it touches no line another core writes.
struct SoloRun {
  const ClusterCache* cluster = nullptr;
  std::uint64_t next_idx = 0;
  std::uint32_t run = 0;
};
thread_local SoloRun t_solo;

/// Requests in a row a thread must have had to itself before it hints.
/// Taking a node's lock to hint moves the lock's cache line to the hinting
/// core. With other drivers on the nodes that move costs the next holder a
/// transfer, and the hinted lines are gone again by the time the hinting
/// thread's request arrives: with 4 clients on 4 SCIP nodes over the flash
/// trace (4-vCPU VM), a hint of try-lock and unlock alone, reading no
/// policy line, cost 3-6% of throughput, while routing without the lock
/// cost nothing measurable. A lone driver keeps the lines in its cache.
constexpr std::uint32_t kSoloRunToHint = 4;

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
      replicas_(config.replicas),
      replicate_hot_(config.replicate_hot),
      initial_share_(capacity_share(config.capacity_bytes, config.nodes, 0)),
      factory_(std::move(make_node_cache)),
      schedule_(config.schedule),
      tracker_(config.hot_threshold, config.hot_window) {
  validate_config(config);
  MutexLock lk(cluster_mu_);
  slots_.reserve(config.nodes);
  HashRing ring;
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    slots_.push_back(
        make_slot(capacity_share(config.capacity_bytes, config.nodes, i), id));
    ring.add_node(id);
  }
  publish_locked(std::move(ring));
  publish_next_event_locked();
}

ClusterCache::NodeSlot ClusterCache::make_slot(std::uint64_t capacity,
                                               std::uint32_t id) const {
  NodeSlot slot;
  slot.node = std::make_unique<Node>("node" + std::to_string(id),
                                     factory_(capacity, id));
  return slot;
}

void ClusterCache::validate_config(const ClusterCacheConfig& config) const {
  if (config.nodes == 0) {
    throw std::invalid_argument("ClusterCache: need at least one node");
  }
  if (config.replicas == 0 || config.replicas > kMaxReplicas) {
    throw std::invalid_argument("ClusterCache: replicas must be in [1, 8]");
  }
  if (config.backing != "origin") {
    throw std::invalid_argument("ClusterCache: unknown backing '" +
                                config.backing + "'");
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
  const std::uint64_t idx = served_.fetch_add(1, std::memory_order_relaxed);
  SoloRun& solo = t_solo;
  solo.run = solo.cluster == this && idx == solo.next_idx
                 ? std::min(solo.run + 1, kSoloRunToHint)
                 : 0;
  solo.cluster = this;
  solo.next_idx = idx + 1;
  if (idx >= next_event_at_.load(std::memory_order_acquire)) {
    MutexLock lk(cluster_mu_);
    apply_due_events_locked(idx);
  }
  // Loaded after the event check: a request at or past an event's index
  // routes on the ring that event published.
  const Route& route = *route_.load(std::memory_order_acquire);
  const HotKeyTracker::Observation seen =
      tracker_.observe_hashed(req.id, h, idx);
  std::uint32_t owners[kMaxReplicas];
  std::size_t k = 1;
  if (seen.hot && replicas_ > 1) {
    k = route.ring.owners_hashed(h, replicas_, owners);
  } else {
    owners[0] = route.ring.owner_hashed(h);
  }
  // Load-forced spreading: successive requests to a hot key rotate over
  // its k owners regardless of the replication knob (a flash crowd is
  // spread for load, not as part of the experiment arm).
  const std::size_t pick = k > 1 ? static_cast<std::size_t>(seen.count % k) : 0;
  Node& target = *route.nodes[owners[pick]];
  if (k > 1) hot_spread_requests_.fetch_add(1, std::memory_order_relaxed);

  if (target.serve(req, h)) return true;
  if (k == 1 || !replicate_hot_) return false;
  // Cooperative peer fill: read-only probes (contains_hashed never
  // mutates), so enabling the knob cannot change any hit/miss outcome —
  // only where the miss bytes come from.
  for (std::size_t i = 0; i < k; ++i) {
    if (i != pick && route.nodes[owners[i]]->contains_hashed(req.id, h)) {
      target.record_peer_fill(req.size);
      break;
    }
  }
  return false;
}

void ClusterCache::prefetch(std::uint64_t id) const noexcept {
  prefetch_hashed(id, hash64(id));
}

void ClusterCache::prefetch_hashed(std::uint64_t id,
                                   std::uint64_t h) const noexcept {
  const SoloRun& solo = t_solo;
  if (solo.cluster != this || solo.run < kSoloRunToHint) return;
  const Route& route = *route_.load(std::memory_order_acquire);
  route.nodes[route.ring.owner_hashed(h)]->prefetch_hashed(id, h);
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
  // The tracker locks its own shards; they never nest under cluster_mu_.
  std::uint64_t total = tracker_.metadata_bytes() +
                        schedule_.capacity() * sizeof(MembershipEvent);
  MutexLock lk(cluster_mu_);
  for (const auto& r : routes_) {
    total += sizeof(Route) + r->ring.metadata_bytes() +
             r->nodes.capacity() * sizeof(Node*);
  }
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

void ClusterCache::publish_locked(HashRing ring) {
  auto next = std::make_unique<Route>();
  next->ring = std::move(ring);
  next->nodes.reserve(slots_.size());
  for (const NodeSlot& s : slots_) next->nodes.push_back(s.node.get());
  routes_.push_back(std::move(next));
  route_.store(routes_.back().get(), std::memory_order_release);
}

void ClusterCache::apply_due_events_locked(std::uint64_t idx) {
  // Requests past an event's index all wait here for it; the first one in
  // fires it and the rest find it gone.
  while (next_event_ < schedule_.size() &&
         schedule_[next_event_].at_request <= idx) {
    const MembershipEvent& ev = schedule_[next_event_++];
    if (ev.kind == MembershipEvent::Kind::kJoin) {
      join_locked();
    } else {
      leave_locked(ev.node);
    }
  }
  publish_next_event_locked();
}

void ClusterCache::publish_next_event_locked() {
  // After the routes the events published (release: a request that reads
  // this value also reads those routes).
  next_event_at_.store(next_event_ < schedule_.size()
                           ? schedule_[next_event_].at_request
                           : UINT64_MAX,
                       std::memory_order_release);
}

std::uint32_t ClusterCache::join_locked() {
  const auto id = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(make_slot(initial_share_, id));
  HashRing ring = route_locked().ring;
  ring.add_node(id);
  // Pull phase: only residents whose owner changed to the joiner (the
  // ring-adjacent arcs its points claimed, expected 1/N of the key space)
  // move; everything else keeps its placement. Requests keep routing on
  // the old ring until the joiner is warm.
  for (std::uint32_t from = 0; from + 1 < slots_.size(); ++from) {
    if (!slots_[from].live) continue;
    transfer_locked(residents_of_locked(from), ring, id,
                    /*restrict_to_new_owner=*/true);
  }
  publish_locked(std::move(ring));
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
  HashRing ring = route_locked().ring;
  ring.remove_node(node);
  transfer_locked(residents, ring, /*only_new_owner=*/0,
                  /*restrict_to_new_owner=*/false);
  publish_locked(std::move(ring));
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
ClusterCache::residents_of_locked(std::uint32_t from) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  // Victims first, so re-inserting in this order reproduces the source's
  // eviction order at the destination (the last transfer, the source's
  // most-protected object, lands freshest).
  slots_[from].node->with_cache([&out](Cache& c) {
    c.for_each_resident([&out](std::uint64_t id, std::uint64_t size) {
      out.emplace_back(id, size);
      return true;
    });
  });
  return out;
}

void ClusterCache::transfer_locked(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& objects,
    const HashRing& ring, std::uint32_t only_new_owner,
    bool restrict_to_new_owner) {
  for (const auto& [id, size] : objects) {
    const std::uint64_t h = hash64(id);
    const std::uint32_t owner = ring.owner_hashed(h);
    if (restrict_to_new_owner && owner != only_new_owner) continue;
    // Warm transfer: the object enters the new owner through its policy's
    // normal admission path (so SCIP's advisor, LIP's LRU insertion etc.
    // see it), marked as one access. The source copy is not erased — the
    // Cache API has no erase; a stale copy simply ages out of its queue.
    Request req;
    req.id = id;
    req.size = size;
    NodeSlot& dest = slots_[owner];
    dest.node->with_cache([&req, h](Cache& c) { c.access_hashed(req, h); });
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
    ns.shard.derive_origin_fetches();
    ns.migrated_in_keys = s.migrated_in_keys;
    ns.migrated_in_bytes = s.migrated_in_bytes;
    out.push_back(std::move(ns));
  }
  return out;
}

ClusterTotals ClusterCache::totals() const {
  ClusterTotals t;
  for (const ClusterNodeStats& ns : node_stats()) {
    t += ns.shard;
    t.migrated_keys += ns.migrated_in_keys;
    t.migrated_bytes += ns.migrated_in_bytes;
  }
  t.hot_spread_requests =
      hot_spread_requests_.load(std::memory_order_relaxed);
  return t;
}

std::vector<std::uint32_t> ClusterCache::owners_of(std::uint64_t id) const {
  MutexLock lk(cluster_mu_);
  std::uint32_t owners[kMaxReplicas];
  const std::size_t k =
      route_locked().ring.owners_hashed(hash64(id), replicas_, owners);
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
