// ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003), cited by
// the paper (§7) as the canonical structure-adjusting victim policy.
//
// Byte-capacity adaptation of the classic four-list design:
//   T1 (recent, seen once)   B1 (ghosts of T1 evictions)
//   T2 (frequent, seen 2+)   B2 (ghosts of T2 evictions)
// A hit in B1 grows the T1 target p (recency was underprovisioned); a hit
// in B2 shrinks it. REPLACE evicts from T1 when it exceeds the target,
// otherwise from T2. Ghost lists are byte-bounded to the cache size.
#pragma once

#include "sim/cache.hpp"
#include "sim/fifo_history.hpp"
#include "sim/lru_queue.hpp"

namespace cdn {

class ArcCache final : public Cache {
 public:
  explicit ArcCache(std::uint64_t capacity_bytes);

  [[nodiscard]] std::string name() const override { return "ARC"; }
  bool access(const Request& req) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return q_.contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return q_.used_bytes(kT1) + q_.used_bytes(kT2);
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  /// Current adaptive target for T1, in bytes (exposed for tests).
  [[nodiscard]] std::uint64_t target_t1() const noexcept { return p_; }

 private:
  void replace(bool hit_in_b2, std::uint64_t incoming);

  // T1 and T2, the two lists of one queue.
  static constexpr std::size_t kT1 = 0;
  static constexpr std::size_t kT2 = 1;
  LruQueue q_;
  // B1 and B2, the two lists of one history over one index.
  static constexpr std::size_t kB1 = 0;
  static constexpr std::size_t kB2 = 1;
  FifoHistory<2> ghosts_;
  std::uint64_t p_ = 0;  ///< target size of T1 in bytes
  std::int64_t tick_ = 0;
};

}  // namespace cdn
