// Convenience base for policies whose resident set is a single LRU queue
// with LRU-end victim selection (the paper evaluates all insertion policies
// on exactly this victim policy). Derived classes implement access() and may
// override on_evict() to observe victims (history lists, predictors, ...).
#pragma once

#include "sim/cache.hpp"
#include "sim/lru_queue.hpp"

namespace cdn {

class QueueCache : public Cache {
 public:
  explicit QueueCache(std::uint64_t capacity_bytes)
      : Cache(capacity_bytes) {}

  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return q_.contains(id);
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    return q_.contains_hashed(id, h);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return q_.used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return q_.metadata_bytes();
  }

  void prefetch(std::uint64_t id) const noexcept override {
    q_.prefetch(id);
  }

  /// LRU-to-MRU walk of the queue: exactly the order make_room() evicts in.
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override {
    q_.for_each_from_lru(
        [&fn](const LruQueue::Node& n) { return fn(n.id, n.size); });
    return true;
  }

  /// Read-only view of the resident queue for audit::Inspector-based tests
  /// (e.g. structural audits of every node of a cluster::Topology tree).
  /// Never used by policies.
  [[nodiscard]] const LruQueue& audit_queue() const noexcept { return q_; }

 protected:
  /// Evicts from the LRU end until `size` more bytes fit.
  void make_room(std::uint64_t size) {
    while (!q_.empty() && q_.used_bytes() + size > capacity_) {
      std::uint64_t victim_hash = 0;
      const LruQueue::Node victim = q_.pop_lru(&victim_hash);
      on_evict_hashed(victim, victim_hash);
    }
  }

  /// Victim observation hook; the node is already removed from the queue.
  virtual void on_evict(const LruQueue::Node& /*victim*/) {}

  /// Victim hook carrying hash64(victim.id), which pop_lru computed for its
  /// own index erase. Distinct name (not an overload) so derived classes
  /// overriding only on_evict() are never shadowed; the default delegates.
  virtual void on_evict_hashed(const LruQueue::Node& victim,
                               std::uint64_t /*victim_hash*/) {
    on_evict(victim);
  }

  LruQueue q_;
  std::int64_t tick_ = 0;  ///< logical time: one tick per access()
};

}  // namespace cdn
