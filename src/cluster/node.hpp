// Node: the one locked policy instance of the multi-cache layers — a ring
// node of the elastic cluster (cluster_cache.hpp) or a node of a tier
// topology (topology.hpp), the lock-striped service's stripes included.
// Its mutex guards the policy and the node's FlowStats, so a request runs
// the policy and books its requests, hits and bytes in one critical
// section: the counters can never disagree with the policy about which
// requests this node served. The one miss outcome a node cannot know under
// its own lock, a fill from a peer, its caller books afterwards with
// record_peer_fill(); a node in front of the origin derives its origin
// fetches from the rest (FlowStats::derive_origin_fetches). A prefetch hint
// (Cache::prefetch_hashed) reads the policy too, so it runs only under the
// lock, taken with a try-lock: a hint never waits for one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/flow_stats.hpp"
#include "util/attr.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace cdn::cluster {

/// A node's flow counters plus its occupancy, read in one critical section.
struct NodeStats : FlowStats {
  std::uint64_t capacity_bytes = 0;  ///< configured node capacity
  std::uint64_t used_bytes = 0;      ///< resident bytes at snapshot time
  std::uint64_t metadata_bytes = 0;  ///< policy metadata footprint

  bool operator==(const NodeStats&) const = default;

  NodeStats& operator+=(const NodeStats& o) noexcept {
    FlowStats::operator+=(o);
    capacity_bytes += o.capacity_bytes;
    used_bytes += o.used_bytes;
    metadata_bytes += o.metadata_bytes;
    return *this;
  }
};

/// Occupancy skew: max over nodes of used_bytes divided by the mean.
/// 1.0 means perfectly balanced; large values mean the key hash (or the
/// workload's popularity skew) is concentrating bytes on few nodes.
[[nodiscard]] inline double occupancy_skew(
    const std::vector<NodeStats>& nodes) noexcept {
  std::uint64_t total = 0;
  std::uint64_t max_used = 0;
  for (const NodeStats& s : nodes) {
    total += s.used_bytes;
    if (s.used_bytes > max_used) max_used = s.used_bytes;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(nodes.size());
  return static_cast<double>(max_used) / mean;
}

/// Capacity of node `i` when `total` bytes split over `nodes` nodes:
/// total/nodes rounded down, with the remainder spread over the first
/// total%nodes nodes so the shares always sum to `total`.
[[nodiscard]] constexpr std::uint64_t capacity_share(
    std::uint64_t total, std::size_t nodes, std::size_t i) noexcept {
  if (nodes == 0) return 0;
  return total / nodes + (i < total % nodes ? 1 : 0);
}

class Node {
 public:
  Node(std::string name, CachePtr cache)
      : name_(std::move(name)), cache_(std::move(cache)) {}

  /// Serves one request with the caller-precomputed hash64(req.id) and
  /// books it. Returns true on hit.
  bool serve(const Request& req, std::uint64_t h) CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    const bool hit = cache_->access_hashed(req, h);
    flow_.record(req.size, hit);
    return hit;
  }

  /// Books one of this node's served misses, of `size` bytes, as filled by
  /// a peer.
  void record_peer_fill(std::uint64_t size) CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    ++flow_.peer_fills;
    flow_.peer_fill_bytes += size;
  }

  /// Serves the run reqs[order[k]], k in [begin, end), in that order under
  /// one lock hold, with hash hashes[order[k]], writing each verdict to
  /// hits_out[order[k]].
  CDN_HOT void serve_run(const Request* reqs, const std::uint64_t* hashes,
                         const std::uint32_t* order, std::uint32_t begin,
                         std::uint32_t end, bool* hits_out)
      CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    serve_run_locked(reqs, hashes, order, begin, end, hits_out);
  }

  /// serve_run() if the lock is free; returns false, serving nothing, when
  /// another thread holds it.
  CDN_HOT bool try_serve_run(const Request* reqs, const std::uint64_t* hashes,
                             const std::uint32_t* order, std::uint32_t begin,
                             std::uint32_t end, bool* hits_out)
      CDN_EXCLUDES(mu_) {
    if (!mu_.try_lock()) return false;
    serve_run_locked(reqs, hashes, order, begin, end, hits_out);
    mu_.unlock();
    return true;
  }

  /// Advisory hint that this node will serve `id` (hash `h`) shortly: runs
  /// the policy's prefetch_hashed if the lock is free, and does nothing
  /// when another thread holds it. Books nothing and changes no decision.
  CDN_HOT void prefetch_hashed(std::uint64_t id, std::uint64_t h) const
      CDN_EXCLUDES(mu_) {
    if (!mu_.try_lock()) return;
    cache_->prefetch_hashed(id, h);
    mu_.unlock();
  }

  /// Read-only residency probe with the caller-precomputed hash64(id)
  /// (replication peer probes). Never changes policy state.
  [[nodiscard]] bool contains_hashed(std::uint64_t id, std::uint64_t h)
      const CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return cache_->contains_hashed(id, h);
  }

  /// Runs `fn` over the wrapped policy under this node's lock, booking
  /// nothing — the control-plane path for warm-transfer migration and
  /// structural audits. Never used on a request path.
  void with_cache(const std::function<void(Cache&)>& fn) CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    fn(*cache_);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The flow and occupancy in one critical section, so used/capacity and
  /// the counters come from one point in time. Capacity is immutable, but
  /// the policy object is not const-thread-safe in general, so even that
  /// read stays under the (uncontended) lock.
  [[nodiscard]] NodeStats snapshot() const CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    NodeStats s;
    static_cast<FlowStats&>(s) = flow_;
    s.capacity_bytes = cache_->capacity();
    s.used_bytes = cache_->used_bytes();
    s.metadata_bytes = cache_->metadata_bytes();
    return s;
  }

 private:
  CDN_HOT void serve_run_locked(const Request* reqs,
                                const std::uint64_t* hashes,
                                const std::uint32_t* order,
                                std::uint32_t begin, std::uint32_t end,
                                bool* hits_out) CDN_REQUIRES(mu_) {
    // Hint the index probe a few requests ahead, overlapping its potential
    // cache miss with the current access. Advisory only: results are
    // identical with the hint removed.
    constexpr std::uint32_t kPrefetchDistance = 4;
    for (std::uint32_t k = begin; k < end; ++k) {
      if (k + kPrefetchDistance < end) {
        const std::uint32_t ahead = order[k + kPrefetchDistance];
        cache_->prefetch_hashed(reqs[ahead].id, hashes[ahead]);
      }
      const std::uint32_t i = order[k];
      const bool hit = cache_->access_hashed(reqs[i], hashes[i]);
      hits_out[i] = hit;
      flow_.record(reqs[i].size, hit);
    }
  }

  std::string name_;
  mutable Mutex mu_;
  CachePtr cache_ CDN_PT_GUARDED_BY(mu_);
  FlowStats flow_ CDN_GUARDED_BY(mu_);
};

}  // namespace cdn::cluster
