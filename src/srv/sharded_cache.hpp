// ShardedCache: a lock-striped in-process cache service.
//
// Capacity is partitioned across N stripes; each stripe is a
// registry-constructed policy instance (SCIP included) inside a
// cluster::Node (cluster/node.hpp), which runs the policy and books the
// request's flow under one annotated cdn::Mutex. Requests route to a
// stripe by a pure function of the 64-bit object id (splitmix-based hash64
// reduced mod N), so routing is bitwise-stable across runs, thread counts,
// and platforms, and a given object always lives in exactly one stripe.
// The routing hash is the only hash64 of a request: it is forwarded to the
// stripe's access_hashed / contains_hashed.
//
// Concurrency model:
//  * access()/access_batch() lock only the target stripe, so requests to
//    different stripes never contend.
//  * access_batch() acquires each touched stripe's lock once per batch (not
//    once per request) and visits stripes opportunistically: try_lock,
//    serve whichever stripe is free, and block only when every stripe
//    still pending is held elsewhere. Callers additionally stagger their
//    walk order so concurrent batches start on different stripes. More
//    stripes thus mean more alternatives when one is busy — the mechanism
//    that makes batch throughput scale with the shard count.
//  * snapshot() reads each stripe under its own lock, one at a time — there
//    is no global lock anywhere; totals() sums the per-stripe snapshot.
//
// Determinism: with one shard and one driver thread, ShardedCache is
// behaviorally identical to the wrapped policy at full capacity (same
// seed -> same hit/miss sequence), which is what lets the throughput bench
// cross-check its 1-shard hit ratios against the unsharded golden masters.
// With multiple shards, each shard deterministically sees the subsequence
// of requests routed to it, so single-threaded replays are reproducible at
// any shard count; only multi-threaded interleaving (which never changes a
// shard's request order relative to its own stream under a single driver,
// but does across concurrent drivers) makes concurrent hit counts run-to-
// run approximate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "sim/cache.hpp"
#include "util/attr.hpp"

namespace cdn::srv {

struct ShardedCacheConfig {
  std::string policy = "SCIP";  ///< registry name (core/registry.hpp)
  std::uint64_t capacity_bytes = 1ULL << 30;
  std::size_t shards = 1;
  /// Seed for shard 0; shard i gets seed + i. With one shard this matches
  /// make_cache(policy, capacity, seed) exactly.
  std::uint64_t seed = 1;
};

class ShardedCache final : public Cache {
 public:
  /// Builds every shard through the policy registry.
  explicit ShardedCache(const ShardedCacheConfig& config);

  /// Builds shards through a custom factory (capacity, shard index) —
  /// used by tests to observe shard construction; `config.policy` is only
  /// used for name().
  ShardedCache(const ShardedCacheConfig& config,
               const std::function<CachePtr(std::uint64_t, std::size_t)>&
                   make_shard_cache);

  /// Shard index for an object id: hash64(id) % shards. Pure and stateless.
  [[nodiscard]] static std::size_t shard_of(std::uint64_t id,
                                            std::size_t shards) noexcept;

  // Cache interface (thread-safe).
  [[nodiscard]] std::string name() const override;
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override;
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override;
  [[nodiscard]] std::uint64_t used_bytes() const override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Processes `n` requests, writing per-request hit flags to `hits_out`
  /// (which must have room for `n` values). Each shard's lock is taken at
  /// most once; within a shard, requests are served in input order.
  /// `first_shard` rotates the shard visit order (worker w passes w so
  /// concurrent batches start on different stripes); it never changes the
  /// result, only the locking schedule.
  CDN_HOT void access_batch(const Request* reqs, std::size_t n,
                            bool* hits_out, std::size_t first_shard = 0);

  /// Point-in-time per-shard stats; one lock acquisition per shard, no
  /// global lock. Shards appear in index order.
  [[nodiscard]] std::vector<cluster::NodeStats> snapshot() const;

  /// Field-wise sum of snapshot().
  [[nodiscard]] cluster::NodeStats totals() const;

 private:
  /// shard_of() for a precomputed hash64(id).
  [[nodiscard]] static std::size_t shard_of_hash(std::uint64_t h,
                                                 std::size_t shards) noexcept;

  std::vector<std::unique_ptr<cluster::Node>> shards_;
  std::string policy_;
};

}  // namespace cdn::srv
