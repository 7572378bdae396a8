// S4LRU (Facebook photo caching, Huang et al. / used as a CDN baseline in
// the paper): four stacked LRU segments, each a quarter of the capacity.
// Misses enter segment 0's MRU end; a hit in segment i promotes to the MRU
// end of segment min(i+1, 3); overflow of segment i demotes its LRU object
// to segment i-1; overflow of segment 0 evicts, and an object larger than
// a segment is not admitted (sim/segmented_cache.hpp).
//
// Optionally hosts an InsertionAdvisor (SCIP on a multi-chain structure, the
// paper's stated future work, §4). The advisor's bimodal decision maps onto
// the stack as:
//   miss, MRU verdict -> insert at segment 0's MRU end (classic S4LRU);
//   miss, LRU verdict -> insert at segment 0's LRU end (next to evict);
//   hit,  MRU verdict -> climb one segment (classic S4LRU promotion);
//   hit,  LRU verdict -> demote to segment 0's LRU end (P-ZRO treatment).
// Victims always leave from segment 0's LRU end and are reported to the
// advisor with their insertion mark, so SCIP's history lists and duels
// work unchanged. With no advisor the cache is classic S4LRU.
#pragma once

#include <memory>

#include "obs/introspect.hpp"
#include "sim/advisor.hpp"
#include "sim/segmented_cache.hpp"

namespace cdn {

class S4LruCache final : public SegmentedCache, public obs::Introspectable {
 public:
  explicit S4LruCache(std::uint64_t capacity_bytes,
                      std::shared_ptr<InsertionAdvisor> advisor = nullptr);

  [[nodiscard]] std::string name() const override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  /// Exports per-segment occupancy ("s4lru.seg<i>_bytes" / "_objects").
  void sample_metrics(obs::MetricRegistry& reg) override;

 private:
  void on_evict_hashed(const LruQueue::Node& victim,
                       std::uint64_t h) override;

  std::shared_ptr<InsertionAdvisor> advisor_;
};

}  // namespace cdn
