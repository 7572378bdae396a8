#include "policies/replacement/lecar.hpp"

#include <algorithm>
#include <cmath>

namespace cdn {

LeCarCache::LeCarCache(std::uint64_t capacity_bytes, std::uint64_t seed,
                       double learning_rate, double discount)
    : Cache(capacity_bytes),
      ghosts_(capacity_bytes),
      learning_rate_(learning_rate),
      discount_(discount),
      rng_(seed) {}

void LeCarCache::on_window() {}

void LeCarCache::apply_regret(double& w_penalized,
                              std::int64_t evict_tick_hint) {
  // Time-discounted regret: d_base^(elapsed), d_base = discount^(1/N).
  const double n = std::max<double>(1.0, static_cast<double>(q_.count()));
  const double d_base = std::pow(discount_, 1.0 / n);
  const double elapsed =
      static_cast<double>(std::max<std::int64_t>(tick_ - evict_tick_hint, 0));
  const double regret = std::pow(d_base, elapsed);
  w_penalized *= std::exp(-learning_rate_ * regret);
  const double sum = w_lru_ + w_lfu_;
  w_lru_ /= sum;
  w_lfu_ = 1.0 - w_lru_;
}

void LeCarCache::evict_id(std::uint64_t victim_id, bool blamed_on_lru) {
  LruQueue::Node victim{};
  q_.erase(victim_id, &victim);
  lfu_order_.erase({victim.aux, victim.last_tick, victim.id});
  ghosts_.add(blamed_on_lru ? kLruGhost : kLfuGhost, victim.id, victim.size);
  ghost_evict_tick_[victim.id] = tick_;
}

void LeCarCache::evict_one() {
  const bool use_lru = rng_.uniform() < w_lru_;
  const std::uint64_t victim_id =
      use_lru ? q_.lru_id() : std::get<2>(*lfu_order_.begin());
  evict_id(victim_id, use_lru);
}

bool LeCarCache::access(const Request& req) {
  ++tick_;
  if (tick_ % 65536 == 0) {
    on_window();
    // Sweep stale discount timestamps (ids no longer in either ghost).
    for (auto it = ghost_evict_tick_.begin();
         it != ghost_evict_tick_.end();) {
      if (!ghosts_.contains(kLruGhost, it->first) &&
          !ghosts_.contains(kLfuGhost, it->first)) {
        it = ghost_evict_tick_.erase(it);
      } else {
        ++it;
      }
    }
  }

  if (LruQueue::Node* n = q_.find(req.id)) {
    lfu_order_.erase({n->aux, n->last_tick, n->id});
    ++n->hits;
    ++n->aux;  // frequency
    n->last_tick = tick_;
    lfu_order_.insert({n->aux, n->last_tick, n->id});
    q_.touch_mru(*n);
    return true;
  }

  std::int64_t evict_hint = 0;
  if (auto it = ghost_evict_tick_.find(req.id);
      it != ghost_evict_tick_.end()) {
    evict_hint = it->second;
  }
  const auto erased = ghosts_.erase_all(req.id);
  if (erased[kLruGhost].found) apply_regret(w_lru_, evict_hint);
  if (erased[kLfuGhost].found) apply_regret(w_lfu_, evict_hint);
  ghost_evict_tick_.erase(req.id);

  if (!fits(req.size)) return false;
  while (q_.used_bytes() + req.size > capacity_ && !q_.empty()) evict_one();
  LruQueue::Node& n = q_.insert_mru(req.id, req.size);
  n.insert_tick = n.last_tick = tick_;
  n.aux = 1;
  lfu_order_.insert({n.aux, n.last_tick, n.id});
  return false;
}

// detlint:allow(accounting, lfu_order_ is the explicit q_.count() * 64 lfu-set-node term)
std::uint64_t LeCarCache::metadata_bytes() const {
  return q_.metadata_bytes() + q_.count() * 64 /* lfu set node */ +
         ghosts_.metadata_bytes() +
         ghost_evict_tick_.size() * 48;
}

}  // namespace cdn
