#include "policies/insertion/dip.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace cdn {

DipCache::DipCache(std::uint64_t capacity_bytes, std::uint64_t seed)
    : QueueCache(capacity_bytes),
      monitor_lru_(std::max<std::uint64_t>(capacity_bytes / 32, 1)),
      monitor_bip_(std::max<std::uint64_t>(capacity_bytes / 32, 1),
                   1.0 / 32.0, seed ^ 0x51ed),
      rng_(seed) {}

bool DipCache::access(const Request& req) {
  ++tick_;
  // Feed the sampled monitor slices. The monitors see a 1/64 slice each, so
  // their capacity (1/32) relative to the slice mirrors the main cache.
  const std::uint64_t slice = hash64(req.id) & 63;
  if (slice == 0) {
    if (!monitor_lru_.access(req)) {
      psel_ = std::max(psel_ - 1, -kPselMax);  // LRU missed
    }
  } else if (slice == 1) {
    if (!monitor_bip_.access(req)) {
      psel_ = std::min(psel_ + 1, kPselMax);  // BIP missed
    }
  }

  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  const bool use_mru =
      bip_winning() ? rng_.chance(epsilon_) : true;  // BIP vs MRU-insertion
  LruQueue::Node& n = use_mru ? q_.insert_mru(req.id, req.size)
                              : q_.insert_lru(req.id, req.size);
  n.insert_tick = n.last_tick = tick_;
  return false;
}

std::uint64_t DipCache::metadata_bytes() const {
  return q_.metadata_bytes() + monitor_lru_.metadata_bytes() +
         monitor_bip_.metadata_bytes() + sizeof(psel_);
}

}  // namespace cdn
