// A policy node of the elastic cluster's ring tier (cluster_cache.hpp): a
// policy instance plus the mutex that serializes the concurrent callers
// routed to it. The single-threaded tier topology (topology.hpp) holds its
// caches directly and needs no lock.
#pragma once

#include <functional>
#include <string>

#include "sim/cache.hpp"
#include "srv/shard_stats.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace cdn::cluster {

class Node {
 public:
  Node(std::string name, CachePtr cache)
      : name_(std::move(name)), cache_(std::move(cache)) {}

  /// Thread-safe access with the caller-precomputed hash64(req.id) — the
  /// cluster routing layer hashes once per request and threads the hash
  /// through every node it touches. Returns true on hit.
  bool access_hashed(const Request& req, std::uint64_t h)
      CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return cache_->access_hashed(req, h);
  }

  /// Read-only residency probe with the caller-precomputed hash64(id)
  /// (replication peer probes). Never changes policy state.
  [[nodiscard]] bool contains_hashed(std::uint64_t id, std::uint64_t h)
      const CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return cache_->contains_hashed(id, h);
  }

  /// Runs `fn` over the wrapped policy under this node's lock — the
  /// control-plane escape hatch for warm-transfer migration and structural
  /// audits (enumerating residents, Inspector checks). Never used on a
  /// request path.
  void with_cache(const std::function<void(Cache&)>& fn) CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    fn(*cache_);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// All occupancy reads in one critical section (the same ShardStats
  /// record the srv shards report): one lock round-trip instead of one per
  /// field, and used/capacity always come from a consistent point in time.
  /// Capacity is immutable after construction, but the policy object is
  /// not const-thread-safe in general, so even that read stays under the
  /// (uncontended) lock rather than carving out an unchecked path.
  [[nodiscard]] srv::ShardStats snapshot() const CDN_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    srv::ShardStats s;
    s.capacity_bytes = cache_->capacity();
    s.used_bytes = cache_->used_bytes();
    s.metadata_bytes = cache_->metadata_bytes();
    return s;
  }

 private:
  std::string name_;
  CachePtr cache_ CDN_PT_GUARDED_BY(mu_);
  mutable Mutex mu_;
};

}  // namespace cdn::cluster
