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

  std::vector<Point> ring_;            ///< sorted by (point, node)
  std::vector<std::uint32_t> nodes_;   ///< sorted member node ids
  std::size_t vnodes_;
};

}  // namespace cdn::cluster
