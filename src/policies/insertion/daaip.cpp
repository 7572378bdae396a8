#include "policies/insertion/daaip.hpp"

#include "util/rng.hpp"

namespace cdn {

DaaipCache::DaaipCache(std::uint64_t capacity_bytes, std::size_t table_size)
    : QueueCache(capacity_bytes), dead_(table_size, 0) {}

std::size_t DaaipCache::signature(std::uint64_t id) const {
  return static_cast<std::size_t>(hash64(id ^ 0xdaa1) % dead_.size());
}

void DaaipCache::on_evict(const LruQueue::Node& victim) {
  std::uint8_t& c = dead_[signature(victim.id)];
  if (victim.hits == 0) {
    if (c < kMax) ++c;
  } else if (c > 0) {
    --c;
  }
}

bool DaaipCache::access(const Request& req) {
  ++tick_;
  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    std::uint8_t& c = dead_[signature(req.id)];
    if (c > 0) --c;  // reuse is evidence of liveness
    if (c >= kDeadThreshold) {
      q_.move_up_one(req.id);  // predicted dead: cautious promotion
    } else {
      q_.touch_mru(*n);
    }
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  const bool predicted_dead = dead_[signature(req.id)] >= kDeadThreshold;
  LruQueue::Node& n = predicted_dead ? q_.insert_lru(req.id, req.size)
                                     : q_.insert_mru(req.id, req.size);
  n.insert_tick = n.last_tick = tick_;
  return false;
}

}  // namespace cdn
