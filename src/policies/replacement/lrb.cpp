#include "policies/replacement/lrb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cdn {

LrbCache::LrbCache(std::uint64_t capacity_bytes, LrbParams params,
                   std::shared_ptr<InsertionAdvisor> advisor)
    : Cache(capacity_bytes),
      params_(params),
      advisor_(std::move(advisor)),
      gbm_(params.gbm),
      rng_(params.seed) {}

std::string LrbCache::name() const {
  std::string n = "LRB";
  if (advisor_) n += std::string("-") + advisor_->tag();
  return n;
}

double LrbCache::boundary_label() const {
  return std::log1p(2.0 * static_cast<double>(params_.memory_window));
}

void LrbCache::update_state(ObjState& st, const Request& req) {
  if (st.last_access >= 0) {
    const auto delta0 = static_cast<std::int32_t>(
        std::min<std::int64_t>(tick_ - st.last_access,
                               std::numeric_limits<std::int32_t>::max()));
    for (int i = kDeltas - 1; i > 0; --i) {
      st.deltas[static_cast<std::size_t>(i)] =
          st.deltas[static_cast<std::size_t>(i - 1)];
    }
    st.deltas[0] = delta0;
    for (int k = 0; k < kEdcs; ++k) {
      const double halflife = static_cast<double>(1ULL << (9 + k));
      st.edc[static_cast<std::size_t>(k)] = static_cast<float>(
          1.0 + st.edc[static_cast<std::size_t>(k)] *
                    std::exp2(-static_cast<double>(delta0) / halflife));
    }
  } else {
    st.edc.fill(1.0f);
  }
  st.last_access = tick_;
  ++st.access_count;
  st.size = req.size;
}

void LrbCache::fill_features(const ObjState& st, float* out) const {
  const auto miss_delta =
      static_cast<float>(std::log1p(2.0 * static_cast<double>(params_.memory_window)));
  int f = 0;
  const std::int64_t age = st.last_access >= 0 ? tick_ - st.last_access : 0;
  out[f++] = static_cast<float>(std::log1p(static_cast<double>(age)));
  for (int i = 0; i < kDeltas; ++i) {
    const std::int32_t d = st.deltas[static_cast<std::size_t>(i)];
    out[f++] = d < 0 ? miss_delta
                     : static_cast<float>(std::log1p(static_cast<double>(d)));
  }
  for (int k = 0; k < kEdcs; ++k) {
    out[f++] = st.edc[static_cast<std::size_t>(k)];
  }
  out[f++] = static_cast<float>(std::log2(static_cast<double>(st.size) + 1.0));
  out[f++] =
      static_cast<float>(std::log1p(static_cast<double>(st.access_count)));
}

void LrbCache::maybe_sample(const Request& req, const ObjState& st) {
  if (params_.sample_every <= 0) return;
  if (tick_ % params_.sample_every != 0) return;
  if (pending_.contains(req.id)) return;
  Pending p;
  p.sample_tick = tick_;
  fill_features(st, p.features.data());
  pending_.emplace(req.id, p);
  pending_fifo_.emplace_back(tick_, req.id);
}

void LrbCache::resolve_pending(std::uint64_t id, std::int64_t now) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const double dist = static_cast<double>(now - it->second.sample_tick);
  const double label = std::min(std::log1p(dist), boundary_label());
  train_buf_.add_row(
      std::span<const float>(it->second.features.data(), kFeatures),
      static_cast<float>(label));
  pending_.erase(it);
}

void LrbCache::expire_pending() {
  const auto window = static_cast<std::int64_t>(params_.memory_window);
  while (!pending_fifo_.empty() &&
         tick_ - pending_fifo_.front().first > window) {
    const auto [sample_tick, id] = pending_fifo_.front();
    pending_fifo_.pop_front();
    auto it = pending_.find(id);
    // Only expire if this FIFO entry still describes the live sample.
    if (it != pending_.end() && it->second.sample_tick == sample_tick) {
      train_buf_.add_row(
          std::span<const float>(it->second.features.data(), kFeatures),
          static_cast<float>(boundary_label()));
      pending_.erase(it);
    }
  }
}

void LrbCache::purge_state() {
  const auto window = static_cast<std::int64_t>(params_.memory_window);
  while (!seen_fifo_.empty() && tick_ - seen_fifo_.front().first > window) {
    const auto [t, id] = seen_fifo_.front();
    seen_fifo_.pop_front();
    auto it = state_.find(id);
    if (it != state_.end() && it->second.last_access == t &&
        !q_.contains(id)) {
      state_.erase(it);
    }
  }
}

void LrbCache::maybe_train() {
  if (train_buf_.rows() < params_.train_batch) return;
  if (tick_ - last_train_tick_ <
      static_cast<std::int64_t>(params_.min_retrain_gap) && gbm_.trained()) {
    return;
  }
  gbm_.fit(train_buf_, rng_);
  train_buf_ = ml::Dataset(kFeatures);
  last_train_tick_ = tick_;
  ++retrains_;
}

void LrbCache::evict_one() {
  if (!gbm_.trained()) {
    const LruQueue::Node victim = q_.pop_lru();
    if (advisor_) {
      advisor_->on_evict(victim.id, victim.size, victim.insert_pos == 1,
                         victim.hits > 0);
    }
    return;
  }
  const int n_samples = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(params_.eviction_samples),
                            q_.count()));
  const double boundary = std::log1p(static_cast<double>(params_.memory_window));
  double best_score = -std::numeric_limits<double>::infinity();
  std::uint64_t best_id = q_.lru_id();
  std::array<float, kFeatures> feats{};
  for (int s = 0; s < n_samples; ++s) {
    LruQueue::Node& n = q_.sample(rng_);
    double predicted;
    if (n.flags & 1u) {
      // Advisor-cold object: treated as beyond the Belady boundary; oldest
      // cold object wins the tie via its age.
      predicted = boundary_label() + 1.0 +
                  std::log1p(static_cast<double>(tick_ - n.last_tick));
    } else {
      auto it = state_.find(n.id);
      if (it == state_.end()) {
        predicted = boundary_label();
      } else {
        fill_features(it->second, feats.data());
        predicted = gbm_.predict_raw(feats.data());
      }
    }
    if (predicted > best_score) {
      best_score = predicted;
      best_id = n.id;
    }
    if (predicted > boundary) {
      // Relaxed Belady: anything beyond the boundary is good enough.
      best_id = n.id;
      break;
    }
  }
  LruQueue::Node victim{};
  q_.erase(best_id, &victim);
  if (advisor_) {
    advisor_->on_evict(victim.id, victim.size, victim.insert_pos == 1,
                       victim.hits > 0);
  }
}

bool LrbCache::access(const Request& req) {
  ++tick_;
  expire_pending();
  purge_state();

  resolve_pending(req.id, tick_);
  ObjState& st = state_[req.id];
  update_state(st, req);
  seen_fifo_.emplace_back(tick_, req.id);
  maybe_sample(req, st);
  maybe_train();

  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    n->last_tick = tick_;
    q_.touch_mru(*n);
    if (advisor_) {
      const bool mru = advisor_->choose_mru_for_hit(req, n->hits);
      n->flags = mru ? (n->flags & ~1u) : (n->flags | 1u);
      n->insert_pos = mru ? 1 : 0;
      advisor_->on_request(req, true);
    }
    return true;
  }

  if (advisor_) advisor_->on_miss(req);
  if (!fits(req.size)) {
    if (advisor_) advisor_->on_request(req, false);
    return false;
  }
  while (q_.used_bytes() + req.size > capacity_ && !q_.empty()) {
    evict_one();  // reports the victim to the advisor internally
  }
  LruQueue::Node& n = q_.insert_mru(req.id, req.size);
  n.insert_tick = n.last_tick = tick_;
  if (advisor_) {
    const bool mru = advisor_->choose_mru_for_miss(req);
    n.flags = mru ? 0u : 1u;
    n.insert_pos = mru ? 1 : 0;
    advisor_->on_request(req, false);
  }
  return false;
}

std::uint64_t LrbCache::metadata_bytes() const {
  const std::uint64_t per_state = sizeof(ObjState) + 48;
  std::uint64_t total = q_.metadata_bytes() + state_.size() * per_state +
                        pending_.size() * (sizeof(Pending) + 48) +
                        seen_fifo_.size() * 16 + pending_fifo_.size() * 16 +
                        train_buf_.rows() * (kFeatures + 1) * sizeof(float) +
                        gbm_.model_bytes();
  if (advisor_) total += advisor_->metadata_bytes();
  return total;
}

}  // namespace cdn
