#include "policies/insertion/dta.hpp"

#include <cmath>

namespace cdn {

DtaCache::DtaCache(std::uint64_t capacity_bytes, std::uint64_t seed)
    : QueueCache(capacity_bytes),
      tree_(ml::GbmParams{.n_trees = 1,
                          .max_depth = 3,
                          .learning_rate = 1.0,
                          .n_bins = 32,
                          .min_samples_leaf = 32,
                          .subsample = 1.0,
                          .lambda = 1.0,
                          .loss = ml::GbmParams::Loss::kSquared}),
      rng_(seed) {}

void DtaCache::features_for(const Request& req, float* out) {
  ObjMeta& m = meta_[req.id];
  out[0] = static_cast<float>(std::log2(static_cast<double>(req.size) + 1.0));
  out[1] = static_cast<float>(std::log1p(static_cast<double>(m.freq)));
  const double gap = m.last_seen >= 0
                         ? static_cast<double>(tick_ - m.last_seen)
                         : 1e9;
  out[2] = static_cast<float>(std::log1p(gap));
  ++m.freq;
  m.last_seen = tick_;
}

void DtaCache::trim_meta() {
  // Bound the request-history table to a small multiple of the cache.
  const std::size_t limit = 4 * q_.count() + 4096;
  if (meta_.size() <= limit) return;
  for (auto it = meta_.begin(); it != meta_.end() && meta_.size() > limit;) {
    if (tick_ - it->second.last_seen > static_cast<std::int64_t>(limit)) {
      it = meta_.erase(it);
    } else {
      ++it;
    }
  }
}

void DtaCache::on_evict(const LruQueue::Node& victim) {
  auto it = live_.find(victim.id);
  if (it == live_.end()) return;
  train_buf_.add_row(std::span<const float>(it->second.features, kFeatures),
                     victim.hits > 0 ? 1.0f : 0.0f);
  live_.erase(it);
  if (train_buf_.rows() >= 4096) {
    tree_.fit(train_buf_, rng_);
    train_buf_ = ml::Dataset(kFeatures);
  }
}

bool DtaCache::access(const Request& req) {
  ++tick_;
  if (tick_ % 65536 == 0) trim_meta();
  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    ObjMeta& m = meta_[req.id];
    ++m.freq;
    m.last_seen = tick_;
    q_.touch_mru(*n);
    return true;
  }
  float feats[kFeatures];
  features_for(req, feats);
  if (!fits(req.size)) return false;
  make_room(req.size);
  const bool predicted_reuse =
      tree_.trained() ? tree_.predict_raw(feats) >= 0.5 : true;
  LruQueue::Node& n = predicted_reuse ? q_.insert_mru(req.id, req.size)
                                      : q_.insert_lru(req.id, req.size);
  n.insert_tick = n.last_tick = tick_;
  live_[req.id] = InsertInfo{{feats[0], feats[1], feats[2]}};
  return false;
}

std::uint64_t DtaCache::metadata_bytes() const {
  return q_.metadata_bytes() + meta_.size() * (sizeof(ObjMeta) + 48) +
         live_.size() * (sizeof(InsertInfo) + 48) +
         train_buf_.rows() * (kFeatures + 1) * sizeof(float) +
         tree_.model_bytes();
}

}  // namespace cdn
