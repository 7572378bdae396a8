#include "policies/admission/two_q.hpp"

#include <algorithm>

namespace cdn {

TwoQCache::TwoQCache(std::uint64_t capacity_bytes, double a1in_frac)
    : Cache(capacity_bytes),
      a1in_cap_(static_cast<std::uint64_t>(
          std::clamp(a1in_frac, 0.05, 0.9) *
          static_cast<double>(capacity_bytes))),
      a1out_(capacity_bytes / 2) {}

void TwoQCache::drop_a1in() {
  const LruQueue::Node n = q_.pop_lru(kA1in);
  a1out_.add(0, n.id, n.size);
}

void TwoQCache::make_room_main(std::uint64_t size) {
  // Reclaim from A1in first (FIFO, feeding A1out), then from Am.
  while (used_bytes() + size > capacity_) {
    if (!q_.empty(kA1in) &&
        (q_.used_bytes(kA1in) > a1in_cap_ || q_.empty(kAm))) {
      drop_a1in();
    } else if (!q_.empty(kAm)) {
      q_.pop_lru(kAm);
    } else {
      return;
    }
  }
}

bool TwoQCache::access(const Request& req) {
  ++tick_;
  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    // 2Q leaves A1in order untouched on hit (FIFO scan resistance).
    if (n->list() == kAm) q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room_main(req.size);
  // A second access within the A1out horizon is admitted to the main queue.
  LruQueue::Node& n = q_.insert_mru(req.id, req.size,
                                    a1out_.erase(0, req.id) ? kAm : kA1in);
  n.insert_tick = n.last_tick = tick_;
  // Keep A1in within its share even when insertions land there.
  while (q_.used_bytes(kA1in) > a1in_cap_ && q_.count(kA1in) > 1) drop_a1in();
  return false;
}

}  // namespace cdn
