#include "cluster/hash_ring.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "cluster/routing.hpp"

namespace cdn::cluster {

HashRing::HashRing(std::size_t vnodes_per_node) : vnodes_(vnodes_per_node) {
  if (vnodes_ == 0) {
    throw std::invalid_argument("HashRing: vnodes_per_node must be >= 1");
  }
}

bool HashRing::contains_node(std::uint32_t node) const noexcept {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

void HashRing::add_node(std::uint32_t node) {
  if (contains_node(node)) {
    throw std::invalid_argument("HashRing: node already present");
  }
  nodes_.insert(std::lower_bound(nodes_.begin(), nodes_.end(), node), node);
  ring_.reserve(ring_.size() + vnodes_);
  for (std::size_t r = 0; r < vnodes_; ++r) {
    ring_.push_back(
        Point{vnode_point(node, static_cast<std::uint32_t>(r)), node});
  }
  rebuild();
}

void HashRing::remove_node(std::uint32_t node) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (it == nodes_.end() || *it != node) {
    throw std::invalid_argument("HashRing: node not present");
  }
  nodes_.erase(it);
  ring_.erase(std::remove_if(
                  ring_.begin(), ring_.end(),
                  [node](const Point& p) { return p.node == node; }),
              ring_.end());
  rebuild();
}

void HashRing::rebuild() {
  // Full re-sort instead of per-point insertion: membership changes are
  // rare control-plane events, and one O(P log P) sort keeps the code
  // obviously deterministic. Ties on `point` (a 64-bit hash collision
  // between virtual nodes — astronomically unlikely but possible) break
  // by node id so the sorted order never depends on insertion history.
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    return a.point != b.point ? a.point < b.point : a.node < b.node;
  });
  buckets_.clear();
  if (ring_.empty()) return;
  assert(ring_.size() < std::numeric_limits<std::uint32_t>::max());
  // Four arcs per point leave most arcs with no point or one, so the scan
  // seldom loops: half the lookup time of one arc per point, for 12 more
  // bytes a point. A non-empty ring gets at least four arcs, so the shift
  // stays below 64.
  const std::size_t arcs = std::bit_ceil(kArcsPerPoint * ring_.size());
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(arcs));
  buckets_.resize(arcs + 1);
  std::size_t i = 0;
  for (std::size_t b = 0; b < arcs; ++b) {
    const std::uint64_t arc_start = static_cast<std::uint64_t>(b)
                                    << bucket_shift_;
    while (i < ring_.size() && ring_[i].point < arc_start) ++i;
    buckets_[b] = static_cast<std::uint32_t>(i);
  }
  buckets_[arcs] = static_cast<std::uint32_t>(ring_.size());
}

std::size_t HashRing::successor_index(std::uint64_t h) const {
  assert(!ring_.empty());
  // Every point before buckets_[b] is below h's arc, every point from
  // buckets_[b + 1] on is above it: the scan stops where lower_bound would.
  const std::size_t b = static_cast<std::size_t>(h >> bucket_shift_);
  std::size_t i = buckets_[b];
  const std::size_t end = buckets_[b + 1];
  while (i < end && ring_[i].point < h) ++i;
  return i == ring_.size() ? 0 : i;
}

std::uint32_t HashRing::owner_hashed(std::uint64_t h) const {
  return ring_[successor_index(h)].node;
}

std::size_t HashRing::owners_hashed(std::uint64_t h, std::size_t k,
                                    std::uint32_t* out) const {
  const std::size_t want = std::min(k, nodes_.size());
  if (want == 0) return 0;
  std::size_t found = 0;
  std::size_t i = successor_index(h);
  // Walk clockwise; k is a small replication factor, so the distinctness
  // check is a linear scan of the partial output.
  for (std::size_t steps = 0; steps < ring_.size() && found < want; ++steps) {
    const std::uint32_t node = ring_[i].node;
    bool seen = false;
    for (std::size_t j = 0; j < found; ++j) {
      if (out[j] == node) {
        seen = true;
        break;
      }
    }
    if (!seen) out[found++] = node;
    if (++i == ring_.size()) i = 0;
  }
  assert(found == want);
  return found;
}

std::uint64_t HashRing::metadata_bytes() const noexcept {
  return static_cast<std::uint64_t>(
      ring_.capacity() * sizeof(Point) +
      (nodes_.capacity() + buckets_.capacity()) * sizeof(std::uint32_t));
}

}  // namespace cdn::cluster
