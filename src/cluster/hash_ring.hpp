// HashRing: deterministic consistent hashing with virtual nodes.
//
// Each physical node owns `vnodes_per_node` points on a 64-bit ring,
// generated by vnode_point(node, replica) (cluster/routing.hpp); a key hashed
// to `h = hash64(id)` is owned by the node of the first ring point clockwise
// from `h` (wrapping). Placement is a pure function of the membership set —
// no RNG, no wall clock, no per-process salt — so routing tables are bitwise
// identical across runs and platforms, and golden-master tests can pin
// owner assignments.
//
// Membership changes move only ring-adjacent key ranges: adding a node
// claims the arcs immediately counter-clockwise of its new points (expected
// 1/N of the key space, the consistent-hashing bound test_hash_ring pins);
// removing a node hands its arcs to each arc's clockwise successor. All
// other keys keep their owner, which is what makes warm-transfer
// rebalancing in ClusterCache incremental instead of a full reshuffle.
//
// Successor lookup is O(1): a bucket table splits the 64-bit ring into
// 2^b equal arcs, the top b bits of a hash naming its arc, and records for
// each arc the index of its first ring point. All points before that index
// lie below the arc and all points at or past the next arc's index lie
// above it, so the first point >= h is either inside h's arc or is the next
// arc's first point. A lookup scans from its arc's first point to the next
// arc's (at most a quarter of a point on average) and returns exactly what
// std::lower_bound over the sorted ring returns, ties and wrap-around
// included; test_hash_ring checks this against lower_bound. The arc count
// is the power of two >= 4x the point count, so the table follows from the
// membership alone: add_node and remove_node rebuild it with the ring, and
// there is no option. metadata_bytes() charges it.
//
// k-way ownership for hot-key replication: owners_hashed(h, k) returns the
// first k *distinct* nodes clockwise from `h`. The owner list is
// prefix-stable (owners(h, k) is a prefix of owners(h, k+1)), so raising
// the replication factor never relocates existing copies.
//
// The ring itself is not thread-safe. ClusterCache never changes a ring
// that requests read: each membership change builds a new ring and
// publishes it in an immutable route snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdn::cluster {

class HashRing {
 public:
  explicit HashRing(std::size_t vnodes_per_node = 64);

  /// Adds a physical node's virtual points. Throws std::invalid_argument
  /// if the node is already present.
  void add_node(std::uint32_t node);

  /// Removes every point of `node`. Throws std::invalid_argument if the
  /// node is not present. The ring may become empty.
  void remove_node(std::uint32_t node);

  [[nodiscard]] bool contains_node(std::uint32_t node) const noexcept;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t point_count() const noexcept {
    return ring_.size();
  }
  [[nodiscard]] std::size_t vnodes_per_node() const noexcept {
    return vnodes_;
  }
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }

  /// Owner of a key given its precomputed hash64(id). The request path
  /// computes that hash exactly once and threads it through here, node
  /// probes and replication (the PR-6 hash-once discipline) — there is
  /// deliberately no owner(id) convenience that would re-hash. Ring must
  /// be non-empty.
  [[nodiscard]] std::uint32_t owner_hashed(std::uint64_t h) const;

  /// First `k` distinct owners clockwise from `h`, written to `out`
  /// (capacity >= k). Returns the count written: min(k, node_count()).
  /// out[0] == owner_hashed(h); the list is prefix-stable in k.
  std::size_t owners_hashed(std::uint64_t h, std::size_t k,
                            std::uint32_t* out) const;

  /// Ring-table footprint for the resource accounting experiments.
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept;

 private:
  struct Point {
    std::uint64_t point = 0;
    std::uint32_t node = 0;
  };

  /// Index of the first ring point clockwise from `h` (wrapping).
  [[nodiscard]] std::size_t successor_index(std::uint64_t h) const;

  /// Sorts the ring and rebuilds the bucket table over it.
  void rebuild();

  static constexpr std::size_t kArcsPerPoint = 4;

  std::vector<Point> ring_;            ///< sorted by (point, node)
  std::vector<std::uint32_t> nodes_;   ///< sorted member node ids
  /// buckets_[b] is the index of the first point >= b << bucket_shift_;
  /// one extra trailing entry holds point_count(). Empty when the ring is.
  std::vector<std::uint32_t> buckets_;
  unsigned bucket_shift_ = 64;  ///< 64 - log2(arc count)
  std::size_t vnodes_;
};

}  // namespace cdn::cluster
