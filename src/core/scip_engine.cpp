#include "core/scip_engine.hpp"

#include <algorithm>
#include <cmath>

namespace cdn {

namespace {
std::uint64_t half_capacity(std::uint64_t cache_capacity,
                            const ScipParams& p) {
  return ScipAdvisor::history_list_capacity(cache_capacity,
                                            p.history_fraction);
}
std::uint64_t monitor_capacity(std::uint64_t cache_capacity,
                               const ScipParams& p) {
  return std::max<std::uint64_t>(cache_capacity >> p.monitor_cap_shift, 1);
}
// Pre-reserve hint for slabs/indexes sized in bytes: assume ~4KiB objects
// (conservative for CDN traces), capped so pathological capacities (the
// boundary tests construct advisors at 2^63 bytes) don't balloon memory.
// Layout-only — the free-listed slabs grow on demand either way; this just
// moves the handful of warm-up reallocations to construction time.
std::size_t reserve_hint(std::uint64_t capacity_bytes) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(capacity_bytes / 4096 + 1, 1ULL << 16));
}
}  // namespace

std::uint64_t ScipAdvisor::history_list_capacity(
    std::uint64_t cache_capacity, double history_fraction) noexcept {
  // floor(fraction * capacity) in 64.32 fixed point: exact for every u64
  // capacity, unlike `fraction * double(capacity)` which loses integer
  // precision above 2^53 and rounds by the double rounding mode.
  const auto num = static_cast<std::uint64_t>(
      std::llround(history_fraction * 4294967296.0));  // fraction * 2^32
  const auto scaled = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(cache_capacity) * num) >> 32);
  return std::max<std::uint64_t>(scaled, 1);
}

ScipAdvisor::ShadowMonitor::ShadowMonitor(std::uint64_t capacity, Mode mode)
    : capacity_(capacity), mode_(mode) {
  q_.reserve(reserve_hint(capacity));
}

ScipAdvisor::ShadowMonitor::Outcome ScipAdvisor::ShadowMonitor::access(
    const Request& req, std::uint64_t h) {
  if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
    ++n->hits;
    if (mode_ == Mode::kDemoteOnHit && n->hits == 1) {
      // Conservative P-ZRO expert: a first residency hit is consistent
      // with a dying pair; a second hit proves liveness.
      q_.demote_lru(*n);
    } else {
      q_.touch_mru(*n);
    }
    return Outcome::kHit;
  }
  if (req.size > capacity_) return Outcome::kExcluded;
  while (q_.used_bytes() + req.size > capacity_ && !q_.empty()) q_.pop_lru();
  // The "LRU arm" is BIP (epsilon = 1/32 of misses still enter at MRU),
  // matching what the main cache executes when the duel favors it.
  if (mode_ == Mode::kBipInsert && !bip_rng_.chance(1.0 / 32.0)) {
    q_.insert_lru_hashed(req.id, req.size, h);
  } else {
    q_.insert_mru_hashed(req.id, req.size, h);
  }
  return Outcome::kMiss;
}

ScipAdvisor::ScipAdvisor(std::uint64_t cache_capacity, ScipParams params)
    : params_(params),
      lr_(params.lr),
      w_miss_(0.9),
      w_prom_(0.95),
      hist_(half_capacity(cache_capacity, params)),
      mon_mru_(monitor_capacity(cache_capacity, params),
               ShadowMonitor::Mode::kMruInsert),
      mon_lip_(monitor_capacity(cache_capacity, params),
               ShadowMonitor::Mode::kBipInsert),
      mon_mru_prom_(monitor_capacity(cache_capacity, params),
                    ShadowMonitor::Mode::kMruInsert),
      mon_demote_(monitor_capacity(cache_capacity, params),
                  ShadowMonitor::Mode::kDemoteOnHit),
      rng_(params.seed) {
  if (monitor_capacity(cache_capacity, params) < params.monitor_min_bytes) {
    params_.use_monitors = false;
  }
  hist_.reserve(reserve_hint(hist_.capacity()));
  // Neutral miss prior (the duel resolves within a few thousand requests);
  // MRU-favoring promotion prior — demotion must prove itself first.
  psel_miss_ = 0;
  psel_prom_ = params_.prom_psel_max;
  update_weights_from_psel();
}

void ScipAdvisor::update_weights_from_psel() {
  // Bimodal, not graded: the miss-ratio curve over a fixed mixing
  // probability has an interior maximum between the BIP dip and pure LRU,
  // so intermediate weights underperform both experts. SELECT therefore
  // executes the duel winner: pure MRU insertion, or BIP (epsilon of
  // misses still MRU) when LRU insertion wins; promotions demote with a
  // small residual epsilon when demotion wins.
  w_miss_ = psel_miss_ >= params_.miss_threshold
                ? 1.0
                : params_.miss_weight_floor;
  w_prom_ = psel_prom_ >= params_.prom_threshold ? 1.0 : 0.05;
}

void ScipAdvisor::sample_metrics(obs::MetricRegistry& reg) {
  // The two-expert execution probabilities; each pair is a distribution
  // over {MRU, LRU} and sums to exactly 1 by construction — the unit test
  // pins that invariant per window.
  reg.series("scip.p_mru_insert").push(w_miss_);
  reg.series("scip.p_lru_insert").push(1.0 - w_miss_);
  reg.series("scip.p_mru_promote").push(w_prom_);
  reg.series("scip.p_lru_promote").push(1.0 - w_prom_);
  reg.series("scip.lambda").push(lr_.lambda());
  reg.series("scip.hm_objects").push(static_cast<double>(hist_.count(kHm)));
  reg.series("scip.hl_objects").push(static_cast<double>(hist_.count(kHl)));
  reg.series("scip.hm_bytes").push(
      static_cast<double>(hist_.used_bytes(kHm)));
  reg.series("scip.hl_bytes").push(
      static_cast<double>(hist_.used_bytes(kHl)));
  reg.series("scip.psel_miss").push(static_cast<double>(psel_miss_));
  reg.series("scip.psel_prom").push(static_cast<double>(psel_prom_));
  const std::uint64_t dec = prom_decisions_ - sampled_prom_decisions_;
  const std::uint64_t dem = prom_demotions_ - sampled_prom_demotions_;
  reg.series("scip.window_demotion_fraction")
      .push(dec ? static_cast<double>(dem) / static_cast<double>(dec) : 0.0);
  sampled_prom_decisions_ = prom_decisions_;
  sampled_prom_demotions_ = prom_demotions_;

  reg.counter("scip.overrides").raise_to(overrides_);
  reg.counter("scip.miss_duel_feeds").raise_to(miss_duel_feeds_);
  reg.counter("scip.prom_duel_feeds").raise_to(prom_duel_feeds_);
  reg.counter("scip.miss_mru_inserts").raise_to(miss_mru_inserts_);
  reg.counter("scip.miss_lru_inserts").raise_to(miss_lru_inserts_);
  reg.counter("scip.prom_decisions").raise_to(prom_decisions_);
  reg.counter("scip.prom_demotions").raise_to(prom_demotions_);
  reg.counter("scip.lr_restarts")
      .raise_to(static_cast<std::uint64_t>(lr_.restarts()));
}

std::uint64_t ScipAdvisor::fixed_state_bytes() noexcept {
  // The advisor's fixed scalar state: learned weights, duel counters, the
  // Algorithm-2 lambda adapter, the decision RNG, and the one-shot
  // per-object override latch. Derived from the member types so a field
  // added to any of them flows into the resource-accounting columns
  // automatically — the hand-counted 96 this replaces could not.
  return sizeof(double) * 2                    // w_miss_, w_prom_
         + sizeof(int) * 2                     // psel_miss_, psel_prom_
         + sizeof(ml::AdaptiveLearningRate)    // lr_
         + sizeof(Rng)                         // rng_
         + sizeof(int) + sizeof(std::uint64_t);  // pending override latch
}

std::uint64_t ScipAdvisor::monitor_fixed_bytes() noexcept {
  // Whole-object footprint of one shadow monitor minus its queue's
  // per-entry storage (charged separately, per live entry): capacity, mode,
  // BIP RNG, and the queue's container headers.
  return sizeof(ShadowMonitor);
}

std::uint64_t ScipAdvisor::metadata_bytes() const {
  // Report only live structures. The history lists and the advisor's fixed
  // scalar state always exist; the four shadow monitors and their fixed
  // per-monitor state only count when the duels are enabled — the
  // constructor disables them below monitor_min_bytes, and charging
  // disabled monitors inflated the resource-accounting columns for exactly
  // the small caches where metadata overhead matters most.
  std::uint64_t total = hist_.metadata_bytes() + fixed_state_bytes();
  if (params_.use_monitors) {
    total += mon_mru_.metadata_bytes() + mon_lip_.metadata_bytes() +
             mon_mru_prom_.metadata_bytes() + mon_demote_.metadata_bytes() +
             4 * monitor_fixed_bytes();
  }
  return total;
}

}  // namespace cdn
