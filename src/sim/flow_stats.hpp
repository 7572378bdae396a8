// FlowStats: the one counter record of every multi-cache layer (the
// sharded service, the elastic cluster, the tier topology), plus the
// zero-denominator ratio convention every result record shares.
//
// A FlowStats describes the requests that reached one point of a cache
// layer — a shard, a cluster node, a topology node or a whole tier — and
// where their bytes came from: a hit at that point, a fill from a peer, or
// a fetch from the origin. Records add field by field, so per-node records
// sum to per-tier and per-layer totals with `+=`, and two runs compare with
// `==`.
#pragma once

#include <cstdint>

namespace cdn {

// Ratio helpers. A zero denominator reports 0.0 ("no traffic, no
// misses"), NEVER NaN/inf. The zero cases are real, not hypothetical: an
// empty trace, warmup_frac == 1.0 (no warm requests), a node or window no
// request reached, a run that took no wall time. The orchestrator's
// per-expert window scoring divides by the same denominators and inherits
// this convention: a window with no evidence scores as loss-free rather
// than poisoning the learner with NaN.

/// num / den, or 0.0 unless den > 0.
template <typename Num, typename Den>
[[nodiscard]] constexpr double ratio_or_zero(Num num, Den den) noexcept {
  return den > Den{0} ? static_cast<double>(num) / static_cast<double>(den)
                      : 0.0;
}

/// 1 - hits / total, or 0.0 when total is zero (a miss ratio).
[[nodiscard]] constexpr double miss_ratio_or_zero(
    std::uint64_t hits, std::uint64_t total) noexcept {
  return total ? 1.0 - static_cast<double>(hits) / static_cast<double>(total)
               : 0.0;
}

struct FlowStats {
  std::uint64_t requests = 0;  ///< requests that reached this point
  std::uint64_t hits = 0;      ///< ... and were served from its cache
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_hit = 0;
  std::uint64_t peer_fills = 0;  ///< misses filled by a sibling cache
  std::uint64_t peer_fill_bytes = 0;
  std::uint64_t origin_fetches = 0;  ///< misses fetched from the origin
  std::uint64_t origin_bytes = 0;

  /// Books one request of `size` bytes; `hit` if this cache served it.
  void record(std::uint64_t size, bool hit) noexcept {
    ++requests;
    bytes_total += size;
    if (hit) {
      ++hits;
      bytes_hit += size;
    }
  }
  /// Books a miss of `size` bytes that went to the origin.
  void record_origin_fetch(std::uint64_t size) noexcept {
    ++origin_fetches;
    origin_bytes += size;
  }

  FlowStats& operator+=(const FlowStats& o) noexcept {
    requests += o.requests;
    hits += o.hits;
    bytes_total += o.bytes_total;
    bytes_hit += o.bytes_hit;
    peer_fills += o.peer_fills;
    peer_fill_bytes += o.peer_fill_bytes;
    origin_fetches += o.origin_fetches;
    origin_bytes += o.origin_bytes;
    return *this;
  }
  bool operator==(const FlowStats&) const = default;

  /// Requests this point did not serve (forwarded, peer-filled or fetched).
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return requests - hits;
  }
  [[nodiscard]] double object_hit_ratio() const noexcept {
    return ratio_or_zero(hits, requests);
  }
  [[nodiscard]] double byte_hit_ratio() const noexcept {
    return ratio_or_zero(bytes_hit, bytes_total);
  }
};

}  // namespace cdn
