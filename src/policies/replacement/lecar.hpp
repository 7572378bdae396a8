// LeCaR (Vietri et al., HotStorage 2018): regret-minimization over two
// experts, LRU and LFU. Each eviction is made by the expert drawn from the
// current weight distribution; ghost lists record which expert is to blame
// when an evicted object is re-requested, and the blamed expert's weight is
// decayed multiplicatively with a time-discounted regret.
#pragma once

#include <set>
#include <unordered_map>

#include "sim/cache.hpp"
#include "sim/fifo_history.hpp"
#include "sim/lru_queue.hpp"
#include "util/rng.hpp"

namespace cdn {

class LeCarCache : public Cache {
 public:
  LeCarCache(std::uint64_t capacity_bytes, std::uint64_t seed = 13,
             double learning_rate = 0.45, double discount = 0.005);

  [[nodiscard]] std::string name() const override { return "LeCaR"; }
  bool access(const Request& req) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return q_.contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return q_.used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  [[nodiscard]] double w_lru() const noexcept { return w_lru_; }

 protected:
  /// Hook for CACHEUS's adaptive learning rate.
  virtual void on_window();

  // (freq, last_tick, id) orders the LFU view; last_tick breaks ties LRU-ward.
  using LfuKey = std::tuple<std::uint64_t, std::int64_t, std::uint64_t>;

  virtual void evict_one();
  /// Decays the blamed expert's weight `w_penalized` by its
  /// time-discounted regret (a ghost of that expert was hit).
  void apply_regret(double& w_penalized, std::int64_t evict_tick_hint);
  void evict_id(std::uint64_t victim_id, bool blamed_on_lru);

  LruQueue q_;  ///< recency order; node.aux = frequency
  std::set<LfuKey> lfu_order_;
  // One ghost list per expert, over one index.
  static constexpr std::size_t kLruGhost = 0;
  static constexpr std::size_t kLfuGhost = 1;
  FifoHistory<2> ghosts_;
  std::unordered_map<std::uint64_t, std::int64_t> ghost_evict_tick_;
  double w_lru_ = 0.5;
  double w_lfu_ = 0.5;
  double learning_rate_;
  double discount_;
  Rng rng_;
  std::int64_t tick_ = 0;
};

}  // namespace cdn
