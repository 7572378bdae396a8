#include "policies/replacement/s4lru.hpp"

#include <algorithm>

namespace cdn {

S4LruCache::S4LruCache(std::uint64_t capacity_bytes,
                       std::shared_ptr<InsertionAdvisor> advisor)
    : SegmentedCache(capacity_bytes), advisor_(std::move(advisor)) {}

std::string S4LruCache::name() const {
  return advisor_ ? std::string("S4LRU-") + advisor_->tag() : "S4LRU";
}

bool S4LruCache::access_hashed(const Request& req, std::uint64_t h) {
  ++tick_;
  if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
    const bool mru =
        !advisor_ || advisor_->choose_mru_for_hit(req, n->hits + 1);
    const int level = static_cast<int>(n->list());
    hit_to(*n, mru ? std::min(level + 1, kLevels - 1) : 0, mru);
    rebalance();
    if (advisor_) advisor_->on_request_hashed(req, true, h);
    return true;
  }
  if (advisor_) advisor_->on_miss_hashed(req, h);
  if (!fits_segment(req.size)) {
    if (advisor_) advisor_->on_request_hashed(req, false, h);
    return false;
  }
  const bool mru = !advisor_ || advisor_->choose_mru_for_miss(req);
  insert_hashed(req.id, req.size, h, 0, mru);
  rebalance();
  if (advisor_) advisor_->on_request_hashed(req, false, h);
  return false;
}

void S4LruCache::on_evict_hashed(const LruQueue::Node& victim,
                                 std::uint64_t h) {
  if (advisor_) {
    advisor_->on_evict_hashed(victim.id, victim.size, victim.insert_pos == 1,
                              victim.hits > 0, h);
  }
}

std::uint64_t S4LruCache::metadata_bytes() const {
  return SegmentedCache::metadata_bytes() +
         (advisor_ ? advisor_->metadata_bytes() : 0);
}

void S4LruCache::sample_metrics(obs::MetricRegistry& reg) {
  for (std::size_t i = 0; i < kLevels; ++i) {
    const std::string prefix = "s4lru.seg" + std::to_string(i);
    reg.series(prefix + "_bytes").push(static_cast<double>(q_.used_bytes(i)));
    reg.series(prefix + "_objects").push(static_cast<double>(q_.count(i)));
  }
}

}  // namespace cdn
