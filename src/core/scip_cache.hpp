// AdvisedLruCache: an LRU-victim-selection queue cache whose insertion and
// promotion positions are delegated to an InsertionAdvisor. With a
// ScipAdvisor this is the paper's SCIP(-LRU); with SciAdvisor it is the SCI
// ablation; with AscIpAdvisor it is the ASC-IP baseline.
//
// The access path follows Algorithm 1 line by line:
//   hit  -> PROMOTE: REMOVE from the queue (not recorded in any history
//           list), then INSERT at the advisor-selected position.
//   miss -> advisor.on_miss (history-list consultation + weight update);
//           EVICT until the object fits, each victim routed to H_m/H_l by
//           its insertion mark; INSERT at the advisor-selected position.
#pragma once

#include <memory>

#include "obs/introspect.hpp"
#include "sim/advisor.hpp"
#include "sim/queue_cache.hpp"

namespace cdn {

class ScipAdvisor;

class AdvisedLruCache final : public QueueCache, public obs::Introspectable {
 public:
  AdvisedLruCache(std::uint64_t capacity_bytes,
                  std::shared_ptr<InsertionAdvisor> advisor);

  [[nodiscard]] std::string name() const override;
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  /// Exports queue occupancy ("cache.objects"/"cache.used_bytes") and
  /// forwards to the advisor when it is itself Introspectable.
  void sample_metrics(obs::MetricRegistry& reg) override;

  [[nodiscard]] InsertionAdvisor& advisor() { return *advisor_; }

  /// Prefetches the queue-index home slot AND the advisor's history-list
  /// slots for `id` (one hash64, shared by all of them). Advisory only.
  void prefetch(std::uint64_t id) const noexcept override;
  void prefetch_hashed(std::uint64_t id,
                       std::uint64_t h) const noexcept override;

 protected:
  void on_evict_hashed(const LruQueue::Node& victim,
                       std::uint64_t victim_hash) override;

 private:
  // One access() body, instantiated twice: over the abstract advisor
  // (virtual dispatch per event hook) and over a concrete ScipAdvisor
  // whose hot hooks are `final` — the compiler then devirtualizes and
  // inlines the whole SCIP event path into the host's request loop, which
  // removes four to five indirect calls per request on the policy this
  // repo exists to measure. Identical source, so behavior cannot diverge.
  // `h` is hash64(req.id), computed by access() or handed down by a
  // multi-node layer that already hashed the id for routing.
  template <typename A>
  bool access_impl(const Request& req, std::uint64_t h, A& adv);

  std::shared_ptr<InsertionAdvisor> advisor_;
  ScipAdvisor* fast_ = nullptr;  ///< set when the advisor is a ScipAdvisor
};

}  // namespace cdn
