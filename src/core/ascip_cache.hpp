// AscIpAdvisor — ASC-IP, the Adaptive Size-aware Cache Insertion Policy
// (Wang et al., ICCD 2022): the paper's own prior work and its strongest
// insertion baseline.
//
// ASC-IP detects zero-reuse objects through their size: objects at or above
// an adaptive threshold T are inserted at the LRU position; hits are always
// promoted to MRU (no promotion policy — the gap SCIP fills). The threshold
// adapts from eviction/history feedback:
//  * an object that was LRU-inserted, evicted, and then re-requested
//    (found in the H_l-style history) proves the threshold too aggressive
//    -> T grows multiplicatively;
//  * an MRU-inserted object evicted without a single hit (hit token False)
//    proves the threshold too permissive for that size -> T shrinks.
// The original derives its update from the evicted object's hit token and
// size in the same spirit; exact constants are our reconstruction (the
// source is not public), bounded to [1 KiB, 1 GiB].
#pragma once

#include "obs/introspect.hpp"
#include "sim/advisor.hpp"
#include "sim/fifo_history.hpp"

namespace cdn {

struct AscIpParams {
  double initial_threshold = 64.0 * 1024.0;
  double grow = 1.10;    ///< on history evidence against LRU insertion
  double shrink = 0.98;  ///< on a never-hit MRU-inserted eviction
  double min_threshold = 1024.0;
  double max_threshold = 1024.0 * 1024.0 * 1024.0;
  double history_fraction = 0.5;
};

class AscIpAdvisor final : public InsertionAdvisor,
                           public obs::Introspectable {
 public:
  AscIpAdvisor(std::uint64_t cache_capacity, AscIpParams params = {});

  void on_miss(const Request& req) override;
  bool choose_mru_for_miss(const Request& req) override;
  bool choose_mru_for_hit(const Request& /*req*/,
                          std::uint32_t /*residency_hits*/) override {
    return true;
  }
  void on_evict(std::uint64_t id, std::uint64_t size, bool was_mru_inserted,
                bool had_hits) override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;
  [[nodiscard]] const char* tag() const override { return "ASC-IP"; }

  [[nodiscard]] double threshold() const noexcept { return threshold_; }

  /// Exports the adaptive size threshold and history occupancy per window.
  void sample_metrics(obs::MetricRegistry& reg) override;

 private:
  AscIpParams params_;
  double threshold_;
  /// Evicted LRU-inserted objects (missed-opportunity probe), list 0.
  FifoHistory<1> hl_;
};

}  // namespace cdn
