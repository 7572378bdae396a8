#include "policies/replacement/arc.hpp"

#include <algorithm>

namespace cdn {

ArcCache::ArcCache(std::uint64_t capacity_bytes)
    : Cache(capacity_bytes), ghosts_(capacity_bytes) {}

void ArcCache::replace(bool hit_in_b2, std::uint64_t incoming) {
  // Evict until the incoming object fits, choosing the list per ARC's
  // REPLACE rule each round.
  while (!q_.empty(kT1) || !q_.empty(kT2)) {
    if (used_bytes() + incoming <= capacity_) return;
    const std::uint64_t t1 = q_.used_bytes(kT1);
    const bool evict_t1 = !q_.empty(kT1) && (t1 > p_ ||
                                             (hit_in_b2 && t1 == p_) ||
                                             q_.empty(kT2));
    const LruQueue::Node n = q_.pop_lru(evict_t1 ? kT1 : kT2);
    ghosts_.add(evict_t1 ? kB1 : kB2, n.id, n.size);
  }
}

bool ArcCache::access(const Request& req) {
  ++tick_;
  // Case I: hit in T1 or T2 -> move to T2 MRU.
  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    if (n->list() == kT1) {
      q_.reinsert_mru(*n, kT2);
    } else {
      q_.touch_mru(*n);
    }
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
    LruQueue::Node& n = q_.insert_mru(req.id, req.size, kT2);
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
    LruQueue::Node& n = q_.insert_mru(req.id, req.size, kT2);
    n.insert_tick = n.last_tick = tick_;
    return false;
  }
  // Case IV: cold miss -> admit into T1.
  replace(false, req.size);
  LruQueue::Node& n = q_.insert_mru(req.id, req.size, kT1);
  n.insert_tick = n.last_tick = tick_;
  return false;
}

std::uint64_t ArcCache::metadata_bytes() const {
  return q_.metadata_bytes() + ghosts_.metadata_bytes() + 16;
}

}  // namespace cdn
