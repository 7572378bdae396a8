#include "policies/replacement/sslru.hpp"

#include <algorithm>
#include <cmath>

namespace cdn {

SsLruCache::SsLruCache(std::uint64_t capacity_bytes, double protected_frac,
                       std::uint64_t seed)
    : Cache(capacity_bytes),
      protected_cap_(static_cast<std::uint64_t>(
          std::clamp(protected_frac, 0.1, 0.9) *
          static_cast<double>(capacity_bytes))),
      rng_(seed) {}

SsLruCache::Features SsLruCache::features_of(const Request& req,
                                             const LruQueue::Node& n) const {
  Features x;
  x.f[0] = std::log2(static_cast<float>(req.size) + 1.0f);
  x.f[1] = std::log2(static_cast<float>(tick_ - n.last_tick) + 1.0f);
  x.f[2] = std::log2(static_cast<float>(n.hits) + 1.0f);
  return x;
}

bool SsLruCache::predict_promote(const Features& x) const {
  double z = b_;
  for (int j = 0; j < 3; ++j) z += w_[j] * x.f[j];
  return z >= 0.0;
}

void SsLruCache::learn(const Features& x, bool label) {
  double z = b_;
  for (int j = 0; j < 3; ++j) z += w_[j] * x.f[j];
  const double p = 1.0 / (1.0 + std::exp(-z));
  const double g = p - (label ? 1.0 : 0.0);
  constexpr double kLr = 0.05;
  for (int j = 0; j < 3; ++j) {
    w_[j] -= static_cast<float>(kLr * g * x.f[j]);
  }
  b_ -= static_cast<float>(kLr * g);
}

void SsLruCache::resolve(std::uint64_t id, bool label) {
  auto it = pending_.find(id);
  if (it != pending_.end()) {
    learn(it->second, label);
    pending_.erase(it);
  }
}

void SsLruCache::enforce_caps() {
  // Protected overflow demotes to probation's MRU end; a protected eviction
  // without a follow-up hit resolves its pending promotion as negative.
  while (q_.used_bytes(kProtected) > protected_cap_ &&
         q_.count(kProtected) > 1) {
    LruQueue::Node& n = q_.lru_node(kProtected);
    resolve(n.id, false);
    q_.touch_mru(n, kProbation);
  }
  while (used_bytes() > capacity_ && !q_.empty(kProbation)) {
    q_.pop_lru(kProbation);
  }
  while (used_bytes() > capacity_ && !q_.empty(kProtected)) {
    resolve(q_.pop_lru(kProtected).id, false);
  }
}

bool SsLruCache::access(const Request& req) {
  ++tick_;
  if (LruQueue::Node* n = q_.find(req.id)) {
    if (n->list() == kProtected) {
      // A hit inside protected confirms a pending promotion as positive.
      resolve(req.id, true);
      ++n->hits;
      n->last_tick = tick_;
      q_.touch_mru(*n);
      return true;
    }
    const Features x = features_of(req, *n);
    ++n->hits;
    n->last_tick = tick_;
    if (predict_promote(x)) {
      q_.reinsert_mru(*n, kProtected);
      pending_[req.id] = x;
      enforce_caps();
    } else {
      q_.touch_mru(*n);
    }
    return true;
  }
  if (!fits(req.size)) return false;
  LruQueue::Node& n = q_.insert_mru(req.id, req.size, kProbation);
  n.insert_tick = n.last_tick = tick_;
  enforce_caps();
  return false;
}

std::uint64_t SsLruCache::metadata_bytes() const {
  return q_.metadata_bytes() + pending_.size() * (sizeof(Features) + 48) +
         sizeof(w_) + sizeof(b_);
}

}  // namespace cdn
