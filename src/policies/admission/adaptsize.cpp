#include "policies/admission/adaptsize.hpp"

#include <cmath>

namespace cdn {

AdaptSizeCache::AdaptSizeCache(std::uint64_t capacity_bytes,
                               std::uint64_t seed)
    : QueueCache(capacity_bytes),
      log_cutoff_(17.0, 10.0, 30.0),  // c starts at 128 KiB
      cutoff_(std::exp2(17.0)),
      rng_(seed) {}

bool AdaptSizeCache::access(const Request& req) {
  ++tick_;
  ++window_requests_;
  window_bytes_ += req.size;

  bool hit = false;
  if (LruQueue::Node* n = q_.find(req.id)) {
    hit = true;
    ++n->hits;
    n->last_tick = tick_;
    q_.touch_mru(*n);
    window_hit_bytes_ += req.size;
  } else if (fits(req.size) &&
             rng_.chance(
                 std::exp(-static_cast<double>(req.size) / cutoff_))) {
    make_room(req.size);
    LruQueue::Node& n = q_.insert_mru(req.id, req.size);
    n.insert_tick = n.last_tick = tick_;
  }

  if (window_requests_ >= kWindow) {
    // Hill-climb log2(c) on the window byte hit ratio (the objective
    // AdaptSize optimizes, since bytes map to origin bandwidth).
    const double byte_hit_ratio =
        window_bytes_ ? static_cast<double>(window_hit_bytes_) /
                            static_cast<double>(window_bytes_)
                      : 0.0;
    log_cutoff_.update(byte_hit_ratio, rng_);
    cutoff_ = std::exp2(log_cutoff_.value());
    window_requests_ = 0;
    window_bytes_ = 0;
    window_hit_bytes_ = 0;
  }
  return hit;
}

}  // namespace cdn
