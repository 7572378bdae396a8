#include "policies/replacement/arc.hpp"

#include <algorithm>

namespace cdn {

ArcCache::ArcCache(std::uint64_t capacity_bytes)
    : Cache(capacity_bytes), ghosts_(capacity_bytes) {}

void ArcCache::replace(bool hit_in_b2, std::uint64_t incoming) {
  // Evict until the incoming object fits, choosing the list per ARC's
  // REPLACE rule each round.
  while (!t1_.empty() || !t2_.empty()) {
    if (used_bytes() + incoming <= capacity_) return;
    const bool evict_t1 =
        !t1_.empty() &&
        (t1_.used_bytes() > p_ || (hit_in_b2 && t1_.used_bytes() == p_) ||
         t2_.empty());
    if (evict_t1) {
      const LruQueue::Node n = t1_.pop_lru();
      ghosts_.add(kB1, n.id, n.size);
    } else {
      const LruQueue::Node n = t2_.pop_lru();
      ghosts_.add(kB2, n.id, n.size);
    }
  }
}

bool ArcCache::access(const Request& req) {
  ++tick_;
  // Case I: hit in T1 or T2 -> move to T2 MRU.
  if (LruQueue::Node* n = t1_.find(req.id)) {
    LruQueue::Node copy = *n;
    t1_.erase(req.id);
    LruQueue::Node& moved = t2_.insert_mru(req.id, copy.size);
    moved.hits = copy.hits + 1;
    moved.insert_tick = copy.insert_tick;
    moved.last_tick = tick_;
    return true;
  }
  if (LruQueue::Node* n = t2_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    t2_.touch_mru(req.id);
    return true;
  }
  if (!fits(req.size)) return false;

  // Case II: ghost hit in B1 -> favor recency; admit into T2.
  std::uint64_t ghost_size = 0;
  if (ghosts_.erase(kB1, req.id, &ghost_size)) {
    const std::uint64_t b1 = ghosts_.used_bytes(kB1);
    const std::uint64_t b2 = ghosts_.used_bytes(kB2);
    const std::uint64_t delta = std::max<std::uint64_t>(
        req.size, b2 > 0 ? b2 / std::max<std::uint64_t>(b1 + 1, 1) : 1);
    p_ = std::min(capacity_, p_ + std::max<std::uint64_t>(delta, req.size));
    replace(false, req.size);
    LruQueue::Node& n = t2_.insert_mru(req.id, req.size);
    n.insert_tick = n.last_tick = tick_;
    return false;
  }
  // Case III: ghost hit in B2 -> favor frequency; admit into T2.
  if (ghosts_.erase(kB2, req.id, &ghost_size)) {
    const std::uint64_t b1 = ghosts_.used_bytes(kB1);
    const std::uint64_t b2 = ghosts_.used_bytes(kB2);
    const std::uint64_t delta = std::max<std::uint64_t>(
        req.size, b1 > 0 ? b1 / std::max<std::uint64_t>(b2 + 1, 1) : 1);
    p_ = p_ > delta ? p_ - delta : 0;
    replace(true, req.size);
    LruQueue::Node& n = t2_.insert_mru(req.id, req.size);
    n.insert_tick = n.last_tick = tick_;
    return false;
  }
  // Case IV: cold miss -> admit into T1.
  replace(false, req.size);
  LruQueue::Node& n = t1_.insert_mru(req.id, req.size);
  n.insert_tick = n.last_tick = tick_;
  return false;
}

std::uint64_t ArcCache::metadata_bytes() const {
  return t1_.metadata_bytes() + t2_.metadata_bytes() +
         ghosts_.metadata_bytes() + 16;
}

}  // namespace cdn
