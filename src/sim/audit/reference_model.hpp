// Trivially-correct reference models for differential testing.
//
// `RefLruModel` mirrors `LruQueue` and `RefGhostModel` mirrors one list of
// `FifoHistory` with the dumbest data structure that can be right: a
// `std::list` walked linearly, with byte counts recomputed by summation on
// demand. No slab, no ring, no index, no cached accounting — nothing that
// can drift.
// The differential harness (differential.hpp) drives a reference model and
// the real structure in lockstep under randomized operation sequences and
// asserts identical observable state, so any divergence indicts the
// optimized implementation.
#pragma once

#include <cstdint>
#include <list>
#include <vector>

namespace cdn::audit {

class RefLruModel {
 public:
  struct Entry {
    std::uint64_t id;
    std::uint64_t size;
  };

  [[nodiscard]] bool contains(std::uint64_t id) const;

  void insert_mru(std::uint64_t id, std::uint64_t size);
  void insert_lru(std::uint64_t id, std::uint64_t size);
  void touch_mru(std::uint64_t id);
  void move_up_one(std::uint64_t id);
  void demote_lru(std::uint64_t id);
  /// List must be non-empty.
  Entry pop_lru();
  /// Removes `id`; returns true and copies its entry into `out` if present.
  bool erase(std::uint64_t id, Entry* out = nullptr);

  [[nodiscard]] std::size_t count() const noexcept { return list_.size(); }
  [[nodiscard]] bool empty() const noexcept { return list_.empty(); }
  /// Recomputed by summation every call — the point of a reference model.
  [[nodiscard]] std::uint64_t used_bytes() const;
  [[nodiscard]] std::uint64_t mru_id() const { return list_.front().id; }
  [[nodiscard]] std::uint64_t lru_id() const { return list_.back().id; }
  [[nodiscard]] std::vector<std::uint64_t> ids_lru_to_mru() const;

 private:
  std::list<Entry>::iterator find(std::uint64_t id);

  std::list<Entry> list_;  ///< front = MRU, back = LRU
};

class RefGhostModel {
 public:
  struct Rec {
    std::uint64_t id;
    std::uint64_t size;
    bool tag;
  };

  explicit RefGhostModel(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  [[nodiscard]] bool contains(std::uint64_t id) const;
  void add(std::uint64_t id, std::uint64_t size, bool tag = false);
  bool erase(std::uint64_t id, std::uint64_t* size_out = nullptr,
             bool* tag_out = nullptr);

  [[nodiscard]] std::size_t count() const noexcept { return fifo_.size(); }
  [[nodiscard]] std::uint64_t used_bytes() const;
  [[nodiscard]] std::vector<std::uint64_t> ids_newest_to_oldest() const;

 private:
  std::uint64_t capacity_;
  std::list<Rec> fifo_;  ///< front = newest
};

}  // namespace cdn::audit
