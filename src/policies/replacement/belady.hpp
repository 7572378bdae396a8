// Belady's offline optimal bound (MIN, furthest-in-future eviction).
//
// Requires the trace to be annotated with each request's next-access index
// (trace/oracle.hpp); throws on a request that was never annotated. On each
// eviction the object whose next access lies furthest in the future is
// removed; objects that are never requested again sort as +infinity and go
// first. For unit-size objects this is exactly Belady's MIN; with variable
// sizes it is the standard byte-cache adaptation the LRB simulator (and the
// paper) use as the unreachable lower bound.
#pragma once

#include <set>
#include <unordered_map>

#include "sim/cache.hpp"

namespace cdn {

class BeladyCache final : public Cache {
 public:
  explicit BeladyCache(std::uint64_t capacity_bytes)
      : Cache(capacity_bytes) {}

  struct Obj {
    std::uint64_t size;
    std::int64_t next;
  };

  /// Per-resident metadata cost, sizeof-derived (the history lists'
  /// kPerEntryBytes discipline): one unordered_map node (payload + next
  /// pointer + one amortized bucket slot) plus one rb-tree set node
  /// (payload + three tree pointers + color word padded to pointer width).
  static constexpr std::uint64_t kMapNodeBytes =
      sizeof(std::pair<const std::uint64_t, Obj>) + 2 * sizeof(void*);
  static constexpr std::uint64_t kSetNodeBytes =
      sizeof(std::pair<std::int64_t, std::uint64_t>) + 4 * sizeof(void*);
  static constexpr std::uint64_t kPerEntryBytes = kMapNodeBytes + kSetNodeBytes;

  [[nodiscard]] std::string name() const override { return "Belady"; }
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

 private:
  void evict_until_fits(std::uint64_t size);

  std::unordered_map<std::uint64_t, Obj> objects_;
  std::set<std::pair<std::int64_t, std::uint64_t>> order_;  ///< (next, id)
  std::uint64_t used_bytes_ = 0;
};

}  // namespace cdn
