// Per-shard statistics snapshot shared by the sharded cache service and the
// cluster's policy nodes: the FlowStats counters (sim/flow_stats.hpp) plus
// capacity, occupancy and metadata.
//
// A ShardStats is filled in one critical section (one lock acquisition per
// shard), so readers never observe a torn view of used/capacity/counters
// the way a sequence of per-field locked getters could. Aggregation over a
// snapshot vector is plain integer summation — order-independent and free
// of any global lock.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/flow_stats.hpp"

namespace cdn::srv {

/// A shard's (or cluster node's) flow counters plus its occupancy.
struct ShardStats : FlowStats {
  std::uint64_t capacity_bytes = 0;  ///< configured shard capacity
  std::uint64_t used_bytes = 0;      ///< resident bytes at snapshot time
  std::uint64_t metadata_bytes = 0;  ///< policy metadata footprint

  ShardStats& operator+=(const ShardStats& o) noexcept {
    FlowStats::operator+=(o);
    capacity_bytes += o.capacity_bytes;
    used_bytes += o.used_bytes;
    metadata_bytes += o.metadata_bytes;
    return *this;
  }
};

/// Field-wise sum over a per-shard snapshot.
[[nodiscard]] inline ShardStats sum_stats(
    const std::vector<ShardStats>& shards) noexcept {
  ShardStats total;
  for (const ShardStats& s : shards) total += s;
  return total;
}

/// Occupancy skew: max over shards of used_bytes divided by the mean.
/// 1.0 means perfectly balanced; large values mean the key hash (or the
/// workload's popularity skew) is concentrating bytes on few shards.
[[nodiscard]] inline double occupancy_skew(
    const std::vector<ShardStats>& shards) noexcept {
  if (shards.empty()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t max_used = 0;
  for (const ShardStats& s : shards) {
    total += s.used_bytes;
    if (s.used_bytes > max_used) max_used = s.used_bytes;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards.size());
  return static_cast<double>(max_used) / mean;
}

}  // namespace cdn::srv
