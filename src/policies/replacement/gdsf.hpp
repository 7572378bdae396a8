// GreedyDual-Size-Frequency (Cherkasova & Ciardo, 2001): each object gets
// priority H = L + frequency * cost / size with cost = 1 (uniform miss
// penalty); eviction removes the minimum-H object and raises the global
// inflation value L to the evicted priority, aging everything else.
#pragma once

#include <set>
#include <unordered_map>
#include <utility>

#include "sim/cache.hpp"

namespace cdn {

class GdsfCache final : public Cache {
 public:
  explicit GdsfCache(std::uint64_t capacity_bytes)
      : Cache(capacity_bytes) {}

  struct Obj {
    std::uint64_t size = 0;
    std::uint64_t freq = 0;
    double priority = 0.0;
  };

  /// Per-resident metadata cost, derived from sizeof like FifoHistory's
  /// kPerEntryBytes so a field added to Obj can never silently
  /// desync the accounting. One unordered_map node (payload + next pointer
  /// + one amortized bucket slot) plus one rb-tree set node (payload +
  /// parent/left/right pointers + color word padded to pointer width).
  static constexpr std::uint64_t kMapNodeBytes =
      sizeof(std::pair<const std::uint64_t, Obj>) + 2 * sizeof(void*);
  static constexpr std::uint64_t kSetNodeBytes =
      sizeof(std::pair<double, std::uint64_t>) + 4 * sizeof(void*);
  static constexpr std::uint64_t kPerEntryBytes = kMapNodeBytes + kSetNodeBytes;

  [[nodiscard]] std::string name() const override { return "GDSF"; }
  bool access(const Request& req) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return objects_.contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return used_bytes_;
  }
  // detlint:allow(accounting, objects_ and order_ node costs are the sizeof-derived kMapNodeBytes/kSetNodeBytes terms of kPerEntryBytes)
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return objects_.size() * kPerEntryBytes;
  }

  [[nodiscard]] double inflation() const noexcept { return clock_l_; }
  [[nodiscard]] std::size_t count() const noexcept { return objects_.size(); }

  /// Ascending priority order — exactly the order evict_until_fits removes.
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override;

  /// Structural audit used by the differential tests: order_ and objects_
  /// are the same set (same ids, priorities in sync), used_bytes_ equals
  /// the sum of resident sizes, and no resident priority is below the
  /// inflation clock (evictions take the minimum, so the clock can never
  /// overtake a survivor).
  [[nodiscard]] bool check_invariants() const;

 private:
  [[nodiscard]] double priority_of(const Obj& o) const;
  void evict_until_fits(std::uint64_t size);

  std::unordered_map<std::uint64_t, Obj> objects_;
  std::set<std::pair<double, std::uint64_t>> order_;  ///< (priority, id)
  std::uint64_t used_bytes_ = 0;
  double clock_l_ = 0.0;
};

}  // namespace cdn
