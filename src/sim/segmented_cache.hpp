// Segmented counterpart of QueueCache: the four-level stack of S4LRU
// (Huang et al.) that S4LRU, S4LRU-SCIP and DGIPPR place objects in.
//
// Each level is one list of a single LruQueue and holds a quarter of the
// capacity (segment 0 also takes the rounding remainder), so a hit probes
// one index and the level is the node's list. Derived classes decide where
// an object enters and how far a hit lifts it; rebalance() then restores
// the segment caps the same way for all of them: overflow of level i
// demotes its LRU object to the MRU end of level i-1, and overflow of
// level 0 evicts from its LRU end. Every move between levels is a relink
// in place. Only objects that fit the smallest segment (a quarter of the
// capacity) are admitted: a larger one would flush segment 0 and then
// itself. So every segment is within its cap after its pass, and the
// total capacity holds with them.
#pragma once

#include <array>
#include <functional>

#include "sim/cache.hpp"
#include "sim/lru_queue.hpp"
#include "util/rng.hpp"

namespace cdn {

class SegmentedCache : public Cache {
 public:
  static constexpr int kLevels = 4;
  static_assert(kLevels <= static_cast<int>(LruQueue::kMaxLists));

  explicit SegmentedCache(std::uint64_t capacity_bytes)
      : Cache(capacity_bytes) {
    seg_cap_.fill(capacity_bytes / kLevels);
    seg_cap_[0] += capacity_bytes % kLevels;
  }

  bool access(const Request& req) final {
    return access_hashed(req, hash64(req.id));
  }
  bool access_hashed(const Request& req, std::uint64_t h) override = 0;

  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return q_.contains(id);
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    return q_.contains_hashed(id, h);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kLevels; ++i) total += q_.used_bytes(i);
    return total;
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return q_.metadata_bytes();
  }

  /// Segment 0's LRU end first (the only segment that evicts), then each
  /// higher segment LRU-to-MRU: the order the demotion cascade would bleed
  /// objects out if no further hits arrived.
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override {
    bool keep_going = true;
    for (std::size_t i = 0; i < kLevels && keep_going; ++i) {
      q_.for_each_from_lru(
          [&](const LruQueue::Node& n) {
            keep_going = fn(n.id, n.size);
            return keep_going;
          },
          i);
    }
    return true;
  }

  /// Invariant check used by tests: per-segment byte usage within bounds.
  [[nodiscard]] bool check_invariants() const {
    for (std::size_t i = 0; i < kLevels; ++i) {
      if (q_.used_bytes(i) > seg_cap_[i]) return false;
    }
    return true;
  }

 protected:
  /// True if an object of `size` bytes fits the smallest segment, the
  /// admission bound of the stack.
  [[nodiscard]] bool fits_segment(std::uint64_t size) const noexcept {
    return size <= seg_cap_[kLevels - 1];
  }

  /// Admits a new object at `level`'s MRU end, or its LRU end when `mru`
  /// is false. `h` is hash64(id).
  void insert_hashed(std::uint64_t id, std::uint64_t size, std::uint64_t h,
                     int level, bool mru) {
    const auto l = static_cast<std::size_t>(level);
    LruQueue::Node& n = mru ? q_.insert_mru_hashed(id, size, h, l)
                            : q_.insert_lru_hashed(id, size, h, l);
    n.insert_tick = n.last_tick = tick_;
  }

  /// Counts a hit on resident `n` and moves it to level `dst`'s MRU end, or
  /// its LRU end when `mru` is false.
  void hit_to(LruQueue::Node& n, int dst, bool mru) {
    const auto l = static_cast<std::size_t>(dst);
    mru ? q_.reinsert_mru(n, l) : q_.reinsert_lru(n, l);
    ++n.hits;
    n.last_tick = tick_;
  }

  /// Restores the segment caps (see the file comment), reporting each
  /// victim to on_evict_hashed().
  void rebalance() {
    for (std::size_t i = kLevels - 1; i >= 1; --i) {
      while (q_.used_bytes(i) > seg_cap_[i]) {
        q_.touch_mru(q_.lru_node(i), i - 1);
      }
    }
    while (q_.used_bytes(0) > seg_cap_[0]) {
      std::uint64_t h = 0;
      const LruQueue::Node n = q_.pop_lru(&h);
      on_evict_hashed(n, h);
    }
  }

  /// Victim observation hook; the node has already left the stack and `h`
  /// is hash64(victim.id).
  virtual void on_evict_hashed(const LruQueue::Node& /*victim*/,
                               std::uint64_t /*h*/) {}

  LruQueue q_;  ///< list i is segment i
  std::array<std::uint64_t, kLevels> seg_cap_{};
  std::int64_t tick_ = 0;  ///< logical time: one tick per access
};

}  // namespace cdn
