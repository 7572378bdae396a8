// RANDOM replacement: uniform-random victim selection, no recency state.
// Not a contender policy — it exists because networks of RANDOM caches have
// closed-form per-layer miss ratios (Gallo et al., PAPERS.md), which makes
// it the analytical oracle that validates tree-shaped cluster::Topology
// replays at depth > 1 (see sim/network_analytic.hpp and test_cache_network).
#pragma once

#include "sim/queue_cache.hpp"
#include "util/rng.hpp"

namespace cdn {

class RandomCache final : public QueueCache {
 public:
  explicit RandomCache(std::uint64_t capacity_bytes, std::uint64_t seed = 1)
      : QueueCache(capacity_bytes), rng_(hash64(seed ^ 0x4a4d0ULL)) {}

  [[nodiscard]] std::string name() const override { return "RANDOM"; }

  bool access(const Request& req) override;

 private:
  /// Evicts uniformly random residents until `size` more bytes fit.
  void make_room_random(std::uint64_t size);

  Rng rng_;
};

}  // namespace cdn
