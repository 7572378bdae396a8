// Segmented counterpart of QueueCache: the four-level stack of S4LRU
// (Huang et al.) that S4LRU, S4LRU-SCIP and DGIPPR place objects in.
//
// Each level is an LRU queue holding a quarter of the capacity (segment 0
// also takes the rounding remainder). Derived classes decide where an
// object enters and how far a hit lifts it; rebalance() then restores the
// segment caps the same way for all of them: overflow of level i demotes
// its LRU object to the MRU end of level i-1, overflow of level 0 evicts
// from its LRU end, and a last pass evicts upward from the lowest level
// until the total capacity holds (one object larger than its segment may
// stay alone in it).
#pragma once

#include <algorithm>
#include <array>
#include <functional>

#include "sim/cache.hpp"
#include "sim/lru_queue.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace cdn {

class SegmentedCache : public Cache {
 public:
  static constexpr int kLevels = 4;

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
    return level_.contains(id);
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    return level_.find_hashed(id, h) != nullptr;
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    std::uint64_t total = 0;
    for (const auto& s : seg_) total += s.used_bytes();
    return total;
  }

  /// The segments' queue metadata plus the level index, charged at three
  /// inline slots per entry (the index runs between 1/4 and 1/2 occupancy;
  /// 3x amortizes that slack at its midpoint, as LruQueue does).
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    std::uint64_t total = level_.size() * 3 *
                          FlatMap<std::uint64_t, std::uint8_t>::kSlotBytes;
    for (const auto& s : seg_) total += s.metadata_bytes();
    return total;
  }

  /// Segment 0's LRU end first (the only segment that evicts), then each
  /// higher segment LRU-to-MRU: the order the demotion cascade would bleed
  /// objects out if no further hits arrived.
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override {
    bool keep_going = true;
    for (const auto& s : seg_) {
      if (!keep_going) break;
      s.for_each_from_lru([&](const LruQueue::Node& n) {
        keep_going = fn(n.id, n.size);
        return keep_going;
      });
    }
    return true;
  }

  /// Invariant check used by tests: per-segment byte usage within bounds
  /// and the level index consistent with segment membership.
  [[nodiscard]] bool check_invariants() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < seg_.size(); ++i) {
      n += seg_[i].count();
      if (seg_[i].used_bytes() > seg_cap_[i] && seg_[i].count() > 1) {
        return false;  // one oversized object alone may exceed a segment
      }
    }
    return used_bytes() <= capacity_ && n == level_.size();
  }

 protected:
  /// Admits a new object at `level`'s MRU end, or its LRU end when `mru`
  /// is false. `h` is hash64(id).
  void insert_hashed(std::uint64_t id, std::uint64_t size, std::uint64_t h,
                     int level, bool mru) {
    auto& s = seg_[static_cast<std::size_t>(level)];
    LruQueue::Node& n = mru ? s.insert_mru_hashed(id, size, h)
                            : s.insert_lru_hashed(id, size, h);
    n.insert_tick = n.last_tick = tick_;
    level_.insert_hashed(id, static_cast<std::uint8_t>(level), h);
  }

  /// Counts a hit on resident `n`, found at level `*lv`, and moves it to
  /// level `dst`'s MRU end, or its LRU end when `mru` is false. `lv` is
  /// the object's level_ slot and is updated; `h` is hash64(n.id).
  void move_hashed(LruQueue::Node& n, std::uint64_t h, std::uint8_t* lv,
                   int dst, bool mru) {
    auto& to = seg_[static_cast<std::size_t>(dst)];
    LruQueue::Node* moved = &n;
    if (dst == *lv && mru) {
      to.reinsert_mru(n);
    } else if (dst == *lv) {
      to.reinsert_lru(n);
    } else {
      const std::uint64_t id = n.id;
      LruQueue::Node old{};
      seg_[*lv].erase_hashed(id, h, &old);
      moved = mru ? &to.insert_mru_hashed(id, old.size, h)
                  : &to.insert_lru_hashed(id, old.size, h);
      moved->hits = old.hits;
      moved->insert_tick = old.insert_tick;
      *lv = static_cast<std::uint8_t>(dst);
    }
    ++moved->hits;
    moved->last_tick = tick_;
  }

  /// Restores the segment caps and the total capacity (see the file
  /// comment), reporting each victim to on_evict_hashed().
  void rebalance() {
    for (std::size_t i = seg_.size() - 1; i >= 1; --i) {
      auto& s = seg_[i];
      while (s.used_bytes() > seg_cap_[i] && s.count() > 1) {
        std::uint64_t h = 0;
        const LruQueue::Node n = s.pop_lru(&h);
        LruQueue::Node& moved = seg_[i - 1].insert_mru_hashed(n.id, n.size, h);
        moved.hits = n.hits;
        moved.insert_pos = n.insert_pos;
        moved.insert_tick = n.insert_tick;
        moved.last_tick = n.last_tick;
        *level_.find_hashed(n.id, h) = static_cast<std::uint8_t>(i - 1);
      }
    }
    while (seg_[0].used_bytes() > seg_cap_[0] && !seg_[0].empty()) {
      evict_lru(seg_[0]);
    }
    while (used_bytes() > capacity_) {
      evict_lru(*std::find_if(seg_.begin(), seg_.end(),
                              [](const LruQueue& s) { return !s.empty(); }));
    }
  }

  /// Victim observation hook; the node has already left the stack and `h`
  /// is hash64(victim.id).
  virtual void on_evict_hashed(const LruQueue::Node& /*victim*/,
                               std::uint64_t /*h*/) {}

  std::array<LruQueue, kLevels> seg_;
  std::array<std::uint64_t, kLevels> seg_cap_{};
  FlatMap<std::uint64_t, std::uint8_t> level_;  ///< id -> level
  std::int64_t tick_ = 0;  ///< logical time: one tick per access

 private:
  void evict_lru(LruQueue& s) {
    std::uint64_t h = 0;
    const LruQueue::Node n = s.pop_lru(&h);
    level_.erase_hashed(n.id, h);
    on_evict_hashed(n, h);
  }
};

}  // namespace cdn
