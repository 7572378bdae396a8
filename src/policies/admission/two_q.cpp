#include "policies/admission/two_q.hpp"

#include <algorithm>

namespace cdn {

TwoQCache::TwoQCache(std::uint64_t capacity_bytes, double a1in_frac)
    : Cache(capacity_bytes),
      a1in_cap_(static_cast<std::uint64_t>(
          std::clamp(a1in_frac, 0.05, 0.9) *
          static_cast<double>(capacity_bytes))),
      a1out_(capacity_bytes / 2) {}

void TwoQCache::make_room_main(std::uint64_t size) {
  // Reclaim from A1in first (FIFO, feeding A1out), then from Am.
  while (used_bytes() + size > capacity_) {
    if (!a1in_.empty() &&
        (a1in_.used_bytes() > a1in_cap_ || am_.empty())) {
      const LruQueue::Node n = a1in_.pop_lru();
      a1out_.add(0, n.id, n.size);
    } else if (!am_.empty()) {
      am_.pop_lru();
    } else if (!a1in_.empty()) {
      const LruQueue::Node n = a1in_.pop_lru();
      a1out_.add(0, n.id, n.size);
    } else {
      return;
    }
  }
}

bool TwoQCache::access(const Request& req) {
  ++tick_;
  if (LruQueue::Node* n = am_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    am_.touch_mru(req.id);
    return true;
  }
  if (LruQueue::Node* n = a1in_.find(req.id)) {
    // 2Q leaves A1in order untouched on hit (FIFO scan resistance).
    ++n->hits;
    n->last_tick = tick_;
    return true;
  }
  if (!fits(req.size)) return false;
  make_room_main(req.size);
  if (a1out_.erase(0, req.id)) {
    // Second access within the A1out horizon: admit to the main queue.
    LruQueue::Node& n = am_.insert_mru(req.id, req.size);
    n.insert_tick = n.last_tick = tick_;
  } else {
    LruQueue::Node& n = a1in_.insert_mru(req.id, req.size);
    n.insert_tick = n.last_tick = tick_;
  }
  // Keep A1in within its share even when insertions land there.
  while (a1in_.used_bytes() > a1in_cap_ && a1in_.count() > 1) {
    const LruQueue::Node n = a1in_.pop_lru();
    a1out_.add(0, n.id, n.size);
  }
  return false;
}

}  // namespace cdn
