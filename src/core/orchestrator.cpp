#include "core/orchestrator.hpp"

#include <stdexcept>
#include <utility>

#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace cdn {

OrchestratorCache::OrchestratorCache(std::uint64_t capacity_bytes,
                                     OrchestratorParams params)
    : Cache(capacity_bytes),
      params_(std::move(params)),
      bandit_(params_.experts.size(), params_.eta, params_.weight_floor,
              params_.decay) {
  if (params_.experts.empty()) {
    throw std::invalid_argument("OrchestratorCache: empty expert pool");
  }
  if (params_.initial >= params_.experts.size()) {
    throw std::invalid_argument("OrchestratorCache: initial out of range");
  }
  for (const std::string& e : params_.experts) {
    if (e == "Orchestrator") {
      throw std::invalid_argument(
          "OrchestratorCache: an orchestrator cannot be its own expert");
    }
  }
  if (params_.slice_shift < 0 || params_.cap_shift < 0 ||
      params_.slice_shift + params_.cap_shift >= 63) {
    throw std::invalid_argument("OrchestratorCache: bad shift parameters");
  }
  // Miniature geometry (header comment): capacity scales by the sample
  // fraction AND by 2^cap_shift; request sizes scale by 2^cap_shift only,
  // so both the capacity/working-set ratio and the size/capacity ratio of
  // the live cache carry over to the shadows.
  shadow_capacity_ =
      capacity_bytes >> static_cast<unsigned>(params_.slice_shift +
                                              params_.cap_shift);
  enabled_ = params_.experts.size() >= 2 &&
             shadow_capacity_ >= params_.monitor_min_bytes &&
             params_.window > 0;
  live_idx_ = params_.initial;
  live_ = make_cache(params_.experts[live_idx_], capacity_,
                     live_seed(live_idx_));
  if (enabled_) {
    shadows_.reserve(params_.experts.size());
    for (std::size_t j = 0; j < params_.experts.size(); ++j) {
      shadows_.push_back(
          make_cache(params_.experts[j], shadow_capacity_, shadow_seed(j)));
    }
    win_miss_bytes_.assign(params_.experts.size(), 0);
    // The dwell clock guards against switch thrashing, not against leaving
    // the arbitrary initial expert: the first switch is hysteresis-gated
    // only, so a short trace can still escape a poor starting policy
    // before its warm-up window ends.
    windows_since_switch_ = params_.min_dwell_windows;
    warmup_windows_left_ = params_.score_warmup_windows;
  }
}

std::uint64_t OrchestratorCache::shadow_seed(std::size_t j) const {
  return hash64(params_.seed ^ (0x5ad0ULL + j));
}

std::uint64_t OrchestratorCache::live_seed(std::size_t j) const {
  return hash64(params_.seed ^ (0x11feULL + j));
}

bool OrchestratorCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool OrchestratorCache::access_hashed(const Request& req, std::uint64_t h) {
  if (enabled_) {
    // Sample from the TOP hash bits: the low bits stay untouched for the
    // experts' own internal slicing (SCIP's duels, SB-LRU's arms). The
    // shift is branched on because x >> 64 is undefined, and slice_shift
    // == 0 means "sample everything".
    const bool sampled =
        params_.slice_shift == 0 ||
        (h >> (64U - static_cast<unsigned>(params_.slice_shift))) == 0;
    if (sampled) {
      // Scaled miniature (header comment): request sizes shrink with the
      // shadow capacity so the size-to-capacity geometry stays the live
      // cache's; an object the full cache cannot hold stays unholdable in
      // miniature.
      Request mini = req;
      mini.size = std::max<std::uint64_t>(
          1, req.size >> static_cast<unsigned>(params_.cap_shift));
      if (mini.size <= shadow_capacity_) {
        win_bytes_ += req.size;
        for (std::size_t j = 0; j < shadows_.size(); ++j) {
          if (!shadows_[j]->access_hashed(mini, h)) {
            win_miss_bytes_[j] += req.size;
          }
        }
      }
    }
    ++window_reqs_;
    if (window_reqs_ >= params_.window) close_window_if_scorable();
  }
  return live_->access_hashed(req, h);
}

void OrchestratorCache::close_window_if_scorable() {
  // Merge-on-no-evidence: the sample must have seen bytes, otherwise the
  // window keeps accumulating (see header). Checked once per request past
  // the window length, so a starved sample delays scoring, never skews it.
  if (win_bytes_ == 0) return;
  if (warmup_windows_left_ > 0) {
    // Cold-start discard (see OrchestratorParams::score_warmup_windows):
    // drop the counters without feeding the learner.
    --warmup_windows_left_;
    for (std::size_t j = 0; j < shadows_.size(); ++j) {
      win_miss_bytes_[j] = 0;
    }
    win_bytes_ = 0;
    window_reqs_ = 0;
    return;
  }
  std::vector<double> losses(shadows_.size());
  double min_loss = 1.0;
  for (std::size_t j = 0; j < shadows_.size(); ++j) {
    // Plain sampled byte miss ratio: every expert shares the same sample,
    // so its intrinsic difficulty is a common offset and Hedge's update is
    // invariant to it (header comment).
    losses[j] = static_cast<double>(win_miss_bytes_[j]) /
                static_cast<double>(win_bytes_);
    if (losses[j] < min_loss) min_loss = losses[j];
    win_miss_bytes_[j] = 0;
  }
  win_bytes_ = 0;
  window_reqs_ = 0;
  bandit_.update(losses);
  ++windows_;
  ++windows_since_switch_;

  // Diagnostic regret (header comment): the incumbent's loss gap to the
  // best expert this window, folded into an EWMA with the same decay as
  // the learner. Offsets cancel here exactly as in Hedge: the gap is a
  // DIFFERENCE of losses over the shared sample.
  regret_ewma_ = params_.decay * regret_ewma_ +
                 (1.0 - params_.decay) * (losses[live_idx_] - min_loss);
  const std::size_t best = bandit_.best();
  if (best == live_idx_ ||
      bandit_.probability(best) <=
          bandit_.probability(live_idx_) + params_.switch_margin) {
    lead_windows_ = 0;
    return;
  }
  // The incumbent is dominated. The count survives the dominator changing
  // identity (header: two co-dominators must not filibuster each other);
  // the switch lands on whoever leads at the trigger.
  ++lead_windows_;
  if (lead_windows_ >= params_.hysteresis &&
      windows_since_switch_ >= params_.min_dwell_windows) {
    switch_to(best);
  }
}

void OrchestratorCache::switch_to(std::size_t idx) {
  CachePtr next =
      make_cache(params_.experts[idx], capacity_, live_seed(idx));
  // Warm hand-off through the successor's normal admission path (header
  // comment). The donor's eviction order is the only protection signal the
  // Cache interface exposes, so the replay transcribes that ORDINAL signal
  // into the successor's own statistics geometrically: pass one replays
  // every resident victims-first, each further pass replays only the
  // most-protected half of the previous one, so the resident ranked r from
  // the top receives ~log2(N/r) ordinary access() calls (~2N in total).
  // A single flat pass is not enough for stateful successors — S4LRU would
  // hold the whole transfer unstratified in its probation segment, and a
  // frequency-filtered successor (TinyLFU) would reject everything its
  // virgin sketch has never seen and then admit like a second-hit
  // doorkeeper — while the geometric passes rebuild a stratification /
  // frequency gradient. Never a bypass: every pass is ordinary access().
  // Synthetic requests carry no next-access annotation; none of the
  // orchestratable experts read Request::next.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> residents;
  live_->for_each_resident([&residents](std::uint64_t id, std::uint64_t size) {
    residents.emplace_back(id, size);
    return true;
  });
  std::size_t from = 0;
  while (from < residents.size()) {
    for (std::size_t i = from; i < residents.size(); ++i) {
      Request r;
      r.id = residents[i].first;
      r.size = residents[i].second;
      (void)next->access(r);
    }
    from += (residents.size() - from + 1) / 2;  // drop the bottom half
  }
  live_ = std::move(next);
  live_idx_ = idx;
  ++switches_;
  windows_since_switch_ = 0;
  lead_windows_ = 0;
  regret_ewma_ = 0.0;  // the new incumbent starts with a clean slate
}

void OrchestratorCache::switch_now(std::size_t idx) {
  if (idx >= params_.experts.size()) {
    throw std::invalid_argument("OrchestratorCache::switch_now: bad index");
  }
  switch_to(idx);
}

bool OrchestratorCache::contains(std::uint64_t id) const {
  return live_->contains(id);
}

bool OrchestratorCache::contains_hashed(std::uint64_t id,
                                        std::uint64_t h) const {
  return live_->contains_hashed(id, h);
}

void OrchestratorCache::prefetch(std::uint64_t id) const noexcept {
  live_->prefetch(id);
}

std::uint64_t OrchestratorCache::used_bytes() const {
  return live_->used_bytes();
}

std::uint64_t OrchestratorCache::metadata_bytes() const {
  // The live policy's index plus every shadow expert's index, plus the
  // per-expert window loss accumulators. A shadow stores no payload: its
  // used_bytes() counts bytes it only pretends to hold, and its id/size
  // index is already in its own metadata_bytes().
  std::uint64_t total = live_->metadata_bytes();
  for (const CachePtr& s : shadows_) total += s->metadata_bytes();
  total += win_miss_bytes_.capacity() * sizeof(std::uint64_t);
  return total;
}

bool OrchestratorCache::for_each_resident(
    const std::function<bool(std::uint64_t, std::uint64_t)>& fn) const {
  return live_->for_each_resident(fn);
}

void OrchestratorCache::sample_metrics(obs::MetricRegistry& reg) {
  for (std::size_t j = 0; j < params_.experts.size(); ++j) {
    reg.series("orch.p." + obs::metric_component(params_.experts[j]))
        .push(bandit_.probability(j));
  }
  reg.series("orch.live_idx").push(static_cast<double>(live_idx_));
  reg.series("orch.regret").push(regret_ewma_);
  reg.counter("orch.switches").raise_to(switches_);
  reg.counter("orch.scored_windows").raise_to(windows_);
  reg.gauge("orch.enabled").set(enabled_ ? 1.0 : 0.0);
}

}  // namespace cdn
