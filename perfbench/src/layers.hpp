// Timing decorators around the library's public seams. They forward every
// call unchanged, so a decorated cache makes exactly the decisions of the
// bare one (the transparency tests pin this), and wrap each forwarded call
// in a Span so the traced run can attribute time to the layer it entered.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/scip_engine.hpp"
#include "sim/advisor.hpp"
#include "sim/cache.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// InsertionAdvisor decorator: times each SCIP hook (core.scip.*).
class TimedAdvisor final : public cdn::InsertionAdvisor {
 public:
  explicit TimedAdvisor(std::shared_ptr<cdn::ScipAdvisor> inner)
      : inner_(std::move(inner)) {}

  void on_miss(const cdn::Request& req) override {
    on_miss_hashed(req, cdn::hash64(req.id));
  }
  void on_miss_hashed(const cdn::Request& req, std::uint64_t h) override {
    Span s(Layer::kScipOnMiss);
    inner_->on_miss_hashed(req, h);
  }
  bool choose_mru_for_miss(const cdn::Request& req) override {
    Span s(Layer::kScipChooseMiss);
    return inner_->choose_mru_for_miss(req);
  }
  bool choose_mru_for_hit(const cdn::Request& req,
                          std::uint32_t residency_hits) override {
    Span s(Layer::kScipChooseHit);
    return inner_->choose_mru_for_hit(req, residency_hits);
  }
  void on_evict(std::uint64_t id, std::uint64_t size, bool was_mru_inserted,
                bool had_hits) override {
    on_evict_hashed(id, size, was_mru_inserted, had_hits, cdn::hash64(id));
  }
  void on_evict_hashed(std::uint64_t id, std::uint64_t size,
                       bool was_mru_inserted, bool had_hits,
                       std::uint64_t h) override {
    Span s(Layer::kScipOnEvict);
    inner_->on_evict_hashed(id, size, was_mru_inserted, had_hits, h);
  }
  void on_request(const cdn::Request& req, bool hit) override {
    on_request_hashed(req, hit, cdn::hash64(req.id));
  }
  void on_request_hashed(const cdn::Request& req, bool hit,
                         std::uint64_t h) override {
    Span s(Layer::kScipOnRequest);
    inner_->on_request_hashed(req, hit, h);
  }
  void prefetch_hashed(std::uint64_t h) const noexcept override {
    inner_->prefetch_hashed(h);
  }
  void prefetch_evict_hashed(std::uint64_t h,
                             bool victim_mru) const noexcept override {
    inner_->prefetch_evict_hashed(h, victim_mru);
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return inner_->metadata_bytes();
  }
  [[nodiscard]] const char* tag() const override { return inner_->tag(); }

  [[nodiscard]] const cdn::ScipAdvisor& inner() const { return *inner_; }

 private:
  std::shared_ptr<cdn::ScipAdvisor> inner_;
};

/// SCIP-on-LRU built exactly as cdn::make_scip_lru builds it, with the
/// advisor wrapped in a TimedAdvisor. `advisor_out` receives the decorator.
[[nodiscard]] cdn::CachePtr make_timed_scip_lru(
    std::uint64_t capacity, std::uint64_t seed,
    std::shared_ptr<TimedAdvisor>* advisor_out = nullptr);

/// Cache decorator for cluster nodes: times access_hashed (the node's
/// policy self time, tdc.node.policy_ns) and counts contains_hashed peer
/// probes with their outcomes.
class TimedCache final : public cdn::Cache {
 public:
  explicit TimedCache(cdn::CachePtr inner)
      : cdn::Cache(inner->capacity()), inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  bool access(const cdn::Request& req) override {
    return access_hashed(req, cdn::hash64(req.id));
  }
  bool access_hashed(const cdn::Request& req, std::uint64_t h) override {
    Span s(Layer::kNodeAccess);
    return inner_->access_hashed(req, h);
  }
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return contains_hashed(id, cdn::hash64(id));
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    Span s(Layer::kNodeProbe);
    const bool found = inner_->contains_hashed(id, h);
    s.set_positive(found);
    return found;
  }
  void prefetch(std::uint64_t id) const noexcept override {
    inner_->prefetch(id);
  }
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override {
    return inner_->for_each_resident(fn);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return inner_->metadata_bytes();
  }

 private:
  cdn::CachePtr inner_;
};

}  // namespace perfbench
