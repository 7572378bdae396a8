#include "policies/insertion/ship.hpp"

#include "util/rng.hpp"

namespace cdn {

ShipCache::ShipCache(std::uint64_t capacity_bytes, std::size_t table_size)
    : QueueCache(capacity_bytes), shct_(table_size, 1) {}

std::size_t ShipCache::signature(std::uint64_t id) const {
  return static_cast<std::size_t>(hash64(id) % shct_.size());
}

void ShipCache::on_evict(const LruQueue::Node& victim) {
  if (victim.hits == 0) {
    std::uint8_t& c = shct_[signature(victim.id)];
    if (c > 0) --c;
  }
}

bool ShipCache::access(const Request& req) {
  ++tick_;
  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    std::uint8_t& c = shct_[signature(req.id)];
    if (c < kMax) ++c;
    q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  const bool predicted_reuse = shct_[signature(req.id)] != 0;
  LruQueue::Node& n = predicted_reuse ? q_.insert_mru(req.id, req.size)
                                      : q_.insert_lru(req.id, req.size);
  n.insert_tick = n.last_tick = tick_;
  return false;
}

}  // namespace cdn
