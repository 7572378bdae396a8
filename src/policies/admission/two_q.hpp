// 2Q (Johnson & Shasha, VLDB 1994), §7's classic admission scheme: "only
// objects accessed twice are allowed into the (main) cache".
//
// Byte-capacity 2Q: a FIFO probation queue A1in (default 25 % of capacity)
// absorbs first-time objects; A1in evictions leave a ghost record in A1out
// (sized to half the capacity's worth of metadata). A miss that hits A1out
// is the second access — it is admitted into the main LRU queue Am. Hits
// in A1in do not promote (that is 2Q's scan resistance); hits in Am touch
// MRU as usual.
#pragma once

#include "sim/cache.hpp"
#include "sim/fifo_history.hpp"
#include "sim/lru_queue.hpp"

namespace cdn {

class TwoQCache final : public Cache {
 public:
  explicit TwoQCache(std::uint64_t capacity_bytes, double a1in_frac = 0.25);

  [[nodiscard]] std::string name() const override { return "2Q"; }
  bool access(const Request& req) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return q_.contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return q_.used_bytes(kA1in) + q_.used_bytes(kAm);
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return q_.metadata_bytes() + a1out_.metadata_bytes();
  }

 private:
  void make_room_main(std::uint64_t size);
  void drop_a1in();

  static constexpr std::size_t kA1in = 0;  ///< FIFO probation
  static constexpr std::size_t kAm = 1;    ///< main LRU
  std::uint64_t a1in_cap_;
  LruQueue q_;  ///< A1in and Am
  FifoHistory<1> a1out_;  ///< ghosts of A1in evictions (list 0)
  std::int64_t tick_ = 0;
};

}  // namespace cdn
