#include "policies/admission/tinylfu.hpp"

namespace cdn {

TinyLfuCache::TinyLfuCache(std::uint64_t capacity_bytes)
    : QueueCache(capacity_bytes) {}

bool TinyLfuCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool TinyLfuCache::access_hashed(const Request& req, std::uint64_t h) {
  ++tick_;
  // The request's sketch cells serve both the add and the duel's estimate.
  const CountMinSketch::Cells cells = sketch_.cells(req.id);
  sketch_.add(cells);
  if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
    ++n->hits;
    n->last_tick = tick_;
    q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  // Admission duel against the coldest resident: the candidate must be at
  // least as popular as what it would push out.
  if (!q_.empty() && q_.used_bytes() + req.size > capacity_) {
    const std::uint8_t candidate = sketch_.estimate(cells);
    const std::uint8_t victim = sketch_.estimate(q_.lru_id());
    if (candidate < victim) {
      ++rejections_;
      return false;
    }
  }
  ++admissions_;
  make_room(req.size);
  LruQueue::Node& n = q_.insert_mru_hashed(req.id, req.size, h);
  n.insert_tick = n.last_tick = tick_;
  return false;
}

}  // namespace cdn
