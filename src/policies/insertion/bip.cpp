#include "policies/insertion/bip.hpp"

namespace cdn {

bool BipCache::access(const Request& req) {
  ++tick_;
  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  LruQueue::Node& n = rng_.chance(epsilon_) ? q_.insert_mru(req.id, req.size)
                                            : q_.insert_lru(req.id, req.size);
  n.insert_tick = n.last_tick = tick_;
  return false;
}

}  // namespace cdn
