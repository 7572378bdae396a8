// SS-LRU — Smart Segmented LRU (Li et al., DAC 2022): a two-segment SLRU
// (probation + protected) whose promotion decision is made by a lightweight
// online model instead of the fixed "promote on first hit" rule.
//
// Reconstruction (the paper gives the idea, not the code): misses enter the
// probation segment; on a probation hit a logistic regressor over
// [log size, log reuse gap, access count] predicts whether the object will
// be re-used soon — if yes it is promoted into the protected segment,
// otherwise it only moves to probation's MRU end. Protected overflow demotes
// to probation's MRU end. Training is online: a promotion that sees another
// hit before leaving protected is a positive example; a protected eviction
// without a further hit is a negative one.
#pragma once

#include <unordered_map>

#include "sim/cache.hpp"
#include "sim/lru_queue.hpp"
#include "util/rng.hpp"

namespace cdn {

class SsLruCache final : public Cache {
 public:
  SsLruCache(std::uint64_t capacity_bytes, double protected_frac = 0.5,
             std::uint64_t seed = 7);

  [[nodiscard]] std::string name() const override { return "SS-LRU"; }
  bool access(const Request& req) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return q_.contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return q_.used_bytes(kProbation) + q_.used_bytes(kProtected);
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

 private:
  struct Features {
    float f[3];
  };
  [[nodiscard]] Features features_of(const Request& req,
                                     const LruQueue::Node& n) const;
  [[nodiscard]] bool predict_promote(const Features& x) const;
  void learn(const Features& x, bool label);
  /// Resolves `id`'s pending promotion, if any, with `label`.
  void resolve(std::uint64_t id, bool label);
  void enforce_caps();

  static constexpr std::size_t kProbation = 0;
  static constexpr std::size_t kProtected = 1;
  LruQueue q_;  ///< probation and protected
  std::uint64_t protected_cap_;
  // Pending promotion outcomes: features recorded at promotion time,
  // resolved when the object is hit again (1) or evicted from protected (0).
  std::unordered_map<std::uint64_t, Features> pending_;
  float w_[3] = {0.0f, 0.0f, 0.0f};
  float b_ = 0.5f;  // slight optimism so the cold model promotes
  Rng rng_;
  std::int64_t tick_ = 0;
};

}  // namespace cdn
