// TinyLFU admission (Einziger, Friedman, Manes; ACM TOS 2017), cited in
// the paper's §7 as the frequency-sketch admission family.
//
// An LRU cache guarded by a Count-Min frequency sketch: a missing object is
// admitted only if its estimated recent frequency beats the would-be
// victim's (ties admit). Denied objects still count toward the sketch, so
// a genuinely warming object wins on a later attempt.
#pragma once

#include "policies/admission/count_min.hpp"
#include "sim/queue_cache.hpp"

namespace cdn {

class TinyLfuCache final : public QueueCache {
 public:
  explicit TinyLfuCache(std::uint64_t capacity_bytes);

  [[nodiscard]] std::string name() const override { return "TinyLFU"; }
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return q_.metadata_bytes() + sketch_.metadata_bytes();
  }

  [[nodiscard]] std::uint64_t admissions() const noexcept {
    return admissions_;
  }
  [[nodiscard]] std::uint64_t rejections() const noexcept {
    return rejections_;
  }

 private:
  CountMinSketch sketch_;
  std::uint64_t admissions_ = 0;
  std::uint64_t rejections_ = 0;
};

}  // namespace cdn
