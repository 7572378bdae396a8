// Abstract cache interface every policy implements.
//
// The simulator drives a cache with one call per request; the policy decides
// admission, placement and eviction internally. Objects larger than the
// cache capacity are expected to bypass (counted as misses, never admitted)
// — `Cache::fits` encapsulates that check.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "trace/request.hpp"

namespace cdn {

class Cache {
 public:
  explicit Cache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}
  virtual ~Cache() = default;

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Policy name as reported in bench tables (e.g. "SCIP", "LRU", "ASC-IP").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Processes one request. Returns true on hit. On miss the policy decides
  /// whether/where to admit the object and evicts as needed.
  virtual bool access(const Request& req) = 0;

  /// access() with the caller-precomputed hash64(req.id). Multi-node layers
  /// (cluster routing, replication probes) hash each request id exactly
  /// once and thread the hash through every hop; policies whose index is
  /// keyed by hash64 override this to skip their own re-hash. MUST be
  /// behaviorally identical to access(req) — the default just delegates.
  virtual bool access_hashed(const Request& req, std::uint64_t /*h*/) {
    return access(req);
  }

  /// True if the object is currently resident.
  [[nodiscard]] virtual bool contains(std::uint64_t id) const = 0;

  /// contains() with the caller-precomputed hash64(id) (same discipline as
  /// access_hashed; read-only — never changes policy state).
  [[nodiscard]] virtual bool contains_hashed(std::uint64_t id,
                                             std::uint64_t /*h*/) const {
    return contains(id);
  }

  /// Advisory hint that `id` will be accessed shortly: policies may issue
  /// software prefetches for the index slots access(id) will probe. Purely
  /// an optimization — MUST NOT change any policy decision or statistic.
  /// The replay loop (simulate()) calls this a few requests ahead to
  /// overlap probe-miss latency across requests. Like every other call, a
  /// hint reads the policy's state: a concurrent layer calls a node
  /// policy's hint only under that node's lock (cluster::Node), and skips
  /// it when another thread holds the lock.
  virtual void prefetch(std::uint64_t /*id*/) const noexcept {}

  /// prefetch() with the caller-precomputed hash64(id) (same discipline as
  /// access_hashed): the concurrent layers hash a request once and hint
  /// the node that will serve it through this. The default delegates.
  virtual void prefetch_hashed(std::uint64_t id,
                               std::uint64_t /*h*/) const noexcept {
    prefetch(id);
  }

  /// Enumerates every resident object as (id, size) in eviction order —
  /// the next victim first, the most-protected object last — and returns
  /// true. Policies that cannot enumerate their residents return false
  /// without calling `fn` (callers then treat the cache as opaque and hand
  /// state off cold). `fn` returning false stops the walk early. Read-only:
  /// MUST NOT change any policy decision or statistic. Used by the
  /// orchestrator's warm hand-off (re-admitting victims first leaves the
  /// donor's most-valued objects freshest in the successor) and by
  /// structural audits in tests.
  virtual bool for_each_resident(
      const std::function<bool(std::uint64_t id, std::uint64_t size)>& fn)
      const {
    (void)fn;
    return false;
  }

  /// Bytes currently occupied by resident objects.
  [[nodiscard]] virtual std::uint64_t used_bytes() const = 0;

  /// Estimated in-memory metadata footprint of the policy (index structures,
  /// ghost lists, models). Drives the Fig. 9 / Fig. 11 memory comparison.
  [[nodiscard]] virtual std::uint64_t metadata_bytes() const { return 0; }

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// True if an object of `size` bytes can ever fit in this cache.
  [[nodiscard]] bool fits(std::uint64_t size) const noexcept {
    return size <= capacity_;
  }

 protected:
  std::uint64_t capacity_;
};

using CachePtr = std::unique_ptr<Cache>;

}  // namespace cdn
