#include "srv/sharded_cache.hpp"

#include <stdexcept>

#include "core/registry.hpp"
#include "util/rng.hpp"

namespace cdn::srv {

std::size_t ShardedCache::shard_of(std::uint64_t id,
                                   std::size_t shards) noexcept {
  return shard_of_hash(hash64(id), shards);
}

std::size_t ShardedCache::shard_of_hash(std::uint64_t h,
                                        std::size_t shards) noexcept {
  if (shards == 0) return 0;
  // Identical to h % shards, but power-of-two counts (every count a
  // deployment or the shard sweep actually uses) reduce by mask instead of
  // 64-bit division. One shard takes the same path (mask 0), so every
  // shard count pays exactly the same routing cost — sweep rows differ
  // only in what sharding buys, not in what routing costs.
  return (shards & (shards - 1)) == 0
             ? static_cast<std::size_t>(h & (shards - 1))
             : static_cast<std::size_t>(h % shards);
}

ShardedCache::ShardedCache(const ShardedCacheConfig& config)
    : ShardedCache(config, [&config](std::uint64_t capacity, std::size_t i) {
        return make_cache(config.policy, capacity, config.seed + i);
      }) {}

ShardedCache::ShardedCache(
    const ShardedCacheConfig& config,
    const std::function<CachePtr(std::uint64_t, std::size_t)>&
        make_shard_cache)
    : Cache(config.capacity_bytes), policy_(config.policy) {
  if (config.shards == 0) {
    throw std::invalid_argument("ShardedCache: shards must be >= 1");
  }
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    shards_.push_back(std::make_unique<cluster::Node>(
        "shard" + std::to_string(i),
        make_shard_cache(cluster::capacity_share(config.capacity_bytes,
                                                 config.shards, i),
                         i)));
  }
}

std::string ShardedCache::name() const {
  return "sharded(" + policy_ + "," + std::to_string(shards_.size()) + ")";
}

bool ShardedCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool ShardedCache::access_hashed(const Request& req, std::uint64_t h) {
  return shards_[shard_of_hash(h, shards_.size())]->serve(req, h);
}

bool ShardedCache::contains(std::uint64_t id) const {
  return contains_hashed(id, hash64(id));
}

bool ShardedCache::contains_hashed(std::uint64_t id, std::uint64_t h) const {
  return shards_[shard_of_hash(h, shards_.size())]->contains_hashed(id, h);
}

std::uint64_t ShardedCache::used_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->snapshot().used_bytes;
  return total;
}

std::uint64_t ShardedCache::metadata_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->snapshot().metadata_bytes;
  return total;
}

void ShardedCache::access_batch(const Request* reqs, std::size_t n,
                                bool* hits_out, std::size_t first_shard) {
  const std::size_t n_shards = shards_.size();
  // Group the batch by shard with a stable counting sort: one hash
  // evaluation per request (kept beside its route and forwarded to the
  // shard's policy), then a branch-free scatter into per-shard
  // contiguous index runs. O(n + shards) per batch regardless of shard
  // count — a per-shard filter scan over the batch costs O(n * shards)
  // data-dependent branches instead, and measurably decays throughput as
  // shards grow. Stability keeps each shard's requests in input order, so
  // the result is identical to routing them one at a time. One shard is
  // just the degenerate case (the whole batch is a single run under a
  // single lock hold) — every shard count pays for the same machinery,
  // hash included, so rows of a shard sweep stay comparable.
  constexpr std::size_t kStackN = 1024;
  constexpr std::size_t kStackShards = 64;
  std::uint64_t stack_hashes[kStackN];
  std::uint32_t stack_routes[kStackN];
  std::uint32_t stack_order[kStackN];
  std::uint32_t stack_start[kStackShards + 1];
  std::uint32_t stack_cursor[kStackShards];
  std::vector<std::uint64_t> heap_hashes;
  std::vector<std::uint32_t> heap;
  std::uint64_t* hashes = stack_hashes;
  std::uint32_t* routes = stack_routes;
  std::uint32_t* order = stack_order;
  std::uint32_t* start = stack_start;
  std::uint32_t* cursor = stack_cursor;
  if (n > kStackN || n_shards > kStackShards) {
    // detlint:allow(alloc-in-hot, oversized-batch spill: the stack arrays cover every bench/srv batch shape; the heap branch is the cold fallback)
    heap_hashes.resize(n);
    // detlint:allow(alloc-in-hot, oversized-batch spill: the stack arrays cover every bench/srv batch shape; the heap branch is the cold fallback)
    heap.resize(2 * n + 2 * n_shards + 1);
    hashes = heap_hashes.data();
    routes = heap.data();
    order = routes + n;
    start = order + n;
    cursor = start + n_shards + 1;
  }
  for (std::size_t s = 0; s <= n_shards; ++s) start[s] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = hash64(reqs[i].id);
    routes[i] =
        static_cast<std::uint32_t>(shard_of_hash(hashes[i], n_shards));
    ++start[routes[i] + 1];
  }
  for (std::size_t s = 0; s < n_shards; ++s) {
    start[s + 1] += start[s];
    cursor[s] = start[s];
  }
  for (std::size_t i = 0; i < n; ++i) {
    order[cursor[routes[i]]++] = static_cast<std::uint32_t>(i);
  }
  // Opportunistic visit order: sweep the pending shards with try_lock and
  // serve whichever stripe is free; fall back to a blocking acquire only
  // when a whole sweep found every pending stripe held elsewhere. Shards
  // are independent, so serving them in whatever order the locks allow
  // changes nothing about the result — but it turns "my stripe is busy"
  // from a sleep into useful work on another stripe, which is exactly why
  // batch throughput improves with the shard count under contention.
  constexpr std::size_t kStackDone = kStackShards;
  bool stack_done[kStackDone];
  std::vector<unsigned char> heap_done;
  bool* done = stack_done;
  if (n_shards > kStackDone) {
    // detlint:allow(alloc-in-hot, cold fallback for > 64 shards; deployments and the shard sweep stay on the stack array)
    heap_done.assign(n_shards, 0);
    done = reinterpret_cast<bool*>(heap_done.data());
  }
  std::size_t pending = 0;
  for (std::size_t idx = 0; idx < n_shards; ++idx) {
    done[idx] = start[idx] == start[idx + 1];  // untouched: nothing to do
    pending += !done[idx];
  }
  while (pending > 0) {
    bool progressed = false;
    for (std::size_t off = 0; off < n_shards && pending > 0; ++off) {
      const std::size_t idx = (first_shard + off) % n_shards;
      if (done[idx] ||
          !shards_[idx]->try_serve_run(reqs, hashes, order, start[idx],
                                       start[idx + 1], hits_out)) {
        continue;
      }
      done[idx] = true;
      --pending;
      progressed = true;
    }
    if (progressed || pending == 0) continue;
    // Every pending stripe is held elsewhere: block on the first one in
    // walk order to guarantee forward progress without spinning.
    for (std::size_t off = 0; off < n_shards; ++off) {
      const std::size_t idx = (first_shard + off) % n_shards;
      if (done[idx]) continue;
      shards_[idx]->serve_run(reqs, hashes, order, start[idx],
                              start[idx + 1], hits_out);
      done[idx] = true;
      --pending;
      break;
    }
  }
}

std::vector<cluster::NodeStats> ShardedCache::snapshot() const {
  std::vector<cluster::NodeStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->snapshot());
  return out;
}

cluster::NodeStats ShardedCache::totals() const {
  cluster::NodeStats total;
  for (const auto& shard : shards_) total += shard->snapshot();
  return total;
}

}  // namespace cdn::srv
