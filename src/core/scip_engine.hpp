// ScipAdvisor — the paper's primary contribution (Algorithms 1-2) as a
// pluggable InsertionAdvisor.
//
// SCIP, as described, learns WHERE to insert missing objects and hit
// objects (promotion is a special insertion) from shadow-cache feedback.
// Our implementation composes the paper's three ingredients:
//
//  1. History lists (§3.2) — per-object evidence. Two FIFO lists, H_m and
//     H_l, each logically half the cache, record evicted objects by their
//     last insertion position (tagged with their hit token). "If a missing
//     object is hit in the two lists, the insertion position of THE OBJECT
//     should be adjusted": found in H_l -> it had a chance to hit if
//     MRU-inserted -> this insertion is forced to MRU; found in H_m -> it
//     already wasted a full traversal (a ZRO / P-ZRO) -> forced to LRU.
//     The record is DELETEd either way, and the offending expert's weight
//     is nudged by exp(-lambda) (Algorithm 1, lines 8/11), with lambda
//     adapted by Algorithm 2 on the window hit rate.
//
//  2. Shadow-monitor duels (§1: "the probability of insertion position is
//     adjusted based on hit rates in the shadow caches") — global
//     probabilities. Three sampled shadow monitors (1/32-scale caches fed
//     by disjoint 1/32 hash slices of the traffic) run the pure experts:
//     MRU-insertion, LRU-insertion, and MRU-insertion-with-LRU-demotion-
//     on-hit. Saturating counters of their relative misses set the ambient
//     execution probabilities w_m (miss insertions) and w_p (promotions),
//     exactly the set-dueling estimator DIP made standard — the paired
//     comparison is what makes the learned probability robust to workload
//     non-stationarity, where sequential hill climbing on the global hit
//     rate cannot attribute changes to the knob (see DESIGN.md §5 for why
//     this reconstruction choice was necessary).
//
//  3. Unified treatment of hits (§3.3): a hit object is REMOVEd and
//     re-inserted through the same bimodal SELECT, with its own weight
//     pair learned from the promotion duel. An "LIP" outcome parks the
//     suspected P-ZRO at the LRU end.
#pragma once

#include <algorithm>
#include <memory>

#include "ml/mab.hpp"
#include "util/attr.hpp"
#include "obs/introspect.hpp"
#include "sim/advisor.hpp"
#include "sim/ghost_list.hpp"
#include "sim/lru_queue.hpp"

namespace cdn {

struct ScipParams {
  ml::LearningRateParams lr{};
  std::size_t update_interval = 10'000;  ///< the paper's i (lambda window)
  double history_fraction = 0.5;         ///< each list's share of capacity
  /// Floor on the miss-insertion weight: even when the duel fully favors
  /// LRU insertion, a small epsilon of misses still goes to MRU — this is
  /// exactly BIP's bimodal epsilon (the paper builds its insertion arm on
  /// BIP, §3.1), and it is what keeps admission alive under LIP-favoring
  /// phases. The promotion weight has no floor: demoting random hot
  /// objects is pure loss, and the monitors explore on their own slices.
  double miss_weight_floor = 1.0 / 32.0;
  bool per_object_override = true;       ///< mechanism 1 (ablation switch)
  bool use_monitors = true;              ///< mechanism 2 (ablation switch)
  /// Monitors sample 2^-slice_shift of traffic into caches of
  /// capacity >> cap_shift. Giving the monitors twice the relative capacity
  /// (slice 1/64, capacity 1/32) de-noises the duel: byte caches at tiny
  /// scale are dominated by a handful of large objects otherwise.
  int monitor_slice_shift = 6;
  int monitor_cap_shift = 5;
  /// Monitors below this capacity are statistically meaningless for CDN
  /// object sizes (a handful of objects); the duels are disabled and SCIP
  /// degrades gracefully to per-object history adjustments on plain LRU.
  std::uint64_t monitor_min_bytes = 2ULL << 20;
  int psel_max = 1024;       ///< miss-duel counter saturation
  int miss_threshold = -16;  ///< flip to BIP insertion on decisive evidence
  int prom_psel_max = 128;   ///< promotion duel saturates tighter: demotion
                             ///< phases are short, recovery must be fast
  int prom_threshold = -96;  ///< demote only on near-unanimous evidence
  std::uint64_t seed = 47;
};

class ScipAdvisor : public InsertionAdvisor, public obs::Introspectable {
 public:
  ScipAdvisor(std::uint64_t cache_capacity, ScipParams params = {});

  // The hot-path entry points are the `_hashed` hooks: the host computes
  // hash64(req.id) once per request and threads it through every history
  // and monitor probe. The plain hooks delegate (hashing locally) so
  // direct callers keep bit-identical behavior. All of them are `final`
  // (the one SCIP variant that specializes behavior, SciAdvisor, only
  // overrides choose_mru_for_hit): a host holding a concrete ScipAdvisor*
  // can then devirtualize and inline the whole per-request event path.
  // Their bodies live inline at the bottom of this header for the same
  // reason — out-of-line they cost a cross-TU call per event even after
  // devirtualization, and every one of those calls is on SCIP's side only
  // of the SCIP-vs-LRU replay ratio.
  void on_miss(const Request& req) final {
    on_miss_hashed(req, hash64(req.id));
  }
  void on_miss_hashed(const Request& req, std::uint64_t h) final;
  bool choose_mru_for_miss(const Request& req) final;
  bool choose_mru_for_hit(const Request& req,
                          std::uint32_t residency_hits) override;
  void on_evict(std::uint64_t id, std::uint64_t size, bool was_mru_inserted,
                bool had_hits) final {
    on_evict_hashed(id, size, was_mru_inserted, had_hits, hash64(id));
  }
  void on_evict_hashed(std::uint64_t id, std::uint64_t size,
                       bool was_mru_inserted, bool had_hits,
                       std::uint64_t h) final;
  void on_request(const Request& req, bool hit) final {
    on_request_hashed(req, hit, hash64(req.id));
  }
  void on_request_hashed(const Request& req, bool hit, std::uint64_t h) final;
  void prefetch_hashed(std::uint64_t h) const noexcept final {
    // The miss path consults both history lists before anything else.
    hm_.prefetch_hashed(h);
    hl_.prefetch_hashed(h);
  }
  void prefetch_evict_hashed(std::uint64_t h,
                             bool victim_mru) const noexcept final {
    // The victim is written to exactly one history list (H_m if it was
    // MRU-inserted, H_l otherwise; Algorithm 1 lines 15-19) and the add
    // usually drops that list's FIFO-oldest record. The host serves the
    // side from its tail shadow, so only the receiving list's index home
    // and drop-end record are hinted — hinting all four candidate lines
    // dragged two spurious cold lines into cache per eviction.
    const GhostList& g = victim_mru ? hm_ : hl_;
    g.prefetch_hashed(h);
    g.prefetch_oldest();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override;
  [[nodiscard]] const char* tag() const override { return "SCIP"; }

  /// History-list capacity derivation (each list's byte budget), exposed so
  /// the boundary test can pin it: `floor(history_fraction * capacity)`
  /// computed in integer arithmetic (64.32 fixed point), clamped to >= 1.
  /// The previous `fraction * double(capacity)` lost integer precision
  /// above 2^53 and inherited the double rounding mode.
  [[nodiscard]] static std::uint64_t history_list_capacity(
      std::uint64_t cache_capacity, double history_fraction) noexcept;

  /// sizeof-derived components of metadata_bytes(), exposed so the
  /// accounting test can assert the derivation instead of a hand-counted
  /// constant (the historical 96 / 4x24 literals desynchronized silently).
  [[nodiscard]] static std::uint64_t fixed_state_bytes() noexcept;
  [[nodiscard]] static std::uint64_t monitor_fixed_bytes() noexcept;

  /// Exports the learned state under the "scip." prefix: per window the
  /// two-expert MAB probabilities for insertions and promotions (each pair
  /// sums to 1), the Algorithm-2 learning rate, H_m/H_l occupancy, duel
  /// counter levels and the P-ZRO demotion fraction among risk-class
  /// promotion decisions; cumulative totals as counters. See DESIGN.md §5c.
  void sample_metrics(obs::MetricRegistry& reg) override;

  // Introspection (tests, ablations, trajectory plots).
  [[nodiscard]] double w_mip() const noexcept { return w_miss_; }
  [[nodiscard]] double w_mip_promotion() const noexcept { return w_prom_; }
  [[nodiscard]] double lambda() const noexcept { return lr_.lambda(); }
  [[nodiscard]] std::size_t hm_count() const noexcept { return hm_.count(); }
  [[nodiscard]] std::size_t hl_count() const noexcept { return hl_.count(); }
  [[nodiscard]] std::uint64_t override_count() const noexcept {
    return overrides_;
  }
  /// Requests routed into the miss / promotion duel monitors (both arms).
  /// Each duel must see a 2 * 2^-monitor_slice_shift traffic fraction; the
  /// slicing regression test asserts this against an independent recount.
  [[nodiscard]] std::uint64_t miss_duel_feeds() const noexcept {
    return miss_duel_feeds_;
  }
  [[nodiscard]] std::uint64_t prom_duel_feeds() const noexcept {
    return prom_duel_feeds_;
  }
  /// Executed insertion decisions by position (misses that were admitted).
  [[nodiscard]] std::uint64_t miss_mru_inserts() const noexcept {
    return miss_mru_inserts_;
  }
  [[nodiscard]] std::uint64_t miss_lru_inserts() const noexcept {
    return miss_lru_inserts_;
  }
  /// Promotion decisions over the P-ZRO risk class (first residency hit)
  /// and how many of those were demoted to the LRU end.
  [[nodiscard]] std::uint64_t prom_decisions() const noexcept {
    return prom_decisions_;
  }
  [[nodiscard]] std::uint64_t prom_demotions() const noexcept {
    return prom_demotions_;
  }
  /// Duel counter levels (regression tests for the duel-exclusion rule:
  /// structurally-unadmittable objects must not move these).
  [[nodiscard]] int psel_miss() const noexcept { return psel_miss_; }
  [[nodiscard]] int psel_prom() const noexcept { return psel_prom_; }

 private:
  /// A 1/2^shift-scale cache fed one hash slice, running one pure expert.
  class ShadowMonitor {
   public:
    enum class Mode { kMruInsert, kBipInsert, kDemoteOnHit };
    /// kExcluded: the object is structurally unadmittable at monitor scale
    /// (size > monitor capacity, though it may fit the main cache fine).
    /// Such accesses are guaranteed misses in EVERY monitor regardless of
    /// its expert, so they carry zero evidence about insertion policy —
    /// the duel counters must not move on them.
    enum class Outcome { kHit, kMiss, kExcluded };
    ShadowMonitor(std::uint64_t capacity, Mode mode);
    Outcome access(const Request& req, std::uint64_t h);
    [[nodiscard]] std::uint64_t metadata_bytes() const {
      return q_.metadata_bytes();
    }

   private:
    friend class ScipAdvisor;  // for monitor_fixed_bytes()

    std::uint64_t capacity_;
    Mode mode_;
    LruQueue q_;
    Rng bip_rng_{0xb1b0};
  };

  void update_weights_from_psel();

  ScipParams params_;
  ml::AdaptiveLearningRate lr_;  ///< Algorithm 2 on the nudge magnitude
  double w_miss_;
  double w_prom_;
  GhostList hm_;
  GhostList hl_;
  // Miss duel: 1/64 slices into 1/32-capacity monitors (the DIP ratio).
  ShadowMonitor mon_mru_;
  ShadowMonitor mon_lip_;
  // Promotion duel: identical slicing (1/64 slices into 1/32 capacity,
  // drawn from the next, disjoint block of hash bits) so both duels enjoy
  // the same 2x relative-capacity de-noising and their evidence is
  // statistically comparable. An earlier revision masked this slice with
  // monitor_cap_shift (1/32 slices), silently biasing the P-ZRO demotion
  // decision — the audit/differential harness exists to catch that class
  // of accounting bug mechanically.
  ShadowMonitor mon_mru_prom_;
  ShadowMonitor mon_demote_;
  int psel_miss_ = 0;  ///< >0 favors MRU insertion
  int psel_prom_ = 0;  ///< >0 favors MRU promotion
  Rng rng_;
  // One-shot per-object override armed by on_miss for the object about to
  // be inserted: +1 force MRU, -1 force LRU, 0 none.
  int pending_override_ = 0;
  std::uint64_t pending_override_id_ = 0;
  std::uint64_t overrides_ = 0;
  std::uint64_t miss_duel_feeds_ = 0;
  std::uint64_t prom_duel_feeds_ = 0;
  std::uint64_t miss_mru_inserts_ = 0;
  std::uint64_t miss_lru_inserts_ = 0;
  std::uint64_t prom_decisions_ = 0;
  std::uint64_t prom_demotions_ = 0;
  // Snapshot of the promotion counters at the previous sample_metrics()
  // call, for the per-window demotion fraction series.
  std::uint64_t sampled_prom_decisions_ = 0;
  std::uint64_t sampled_prom_demotions_ = 0;
  std::uint64_t window_hits_ = 0;
  std::uint64_t window_requests_ = 0;
};

// ---- hot-path inline definitions -----------------------------------------

inline void ScipAdvisor::on_miss_hashed(const Request& req, std::uint64_t h) {
  // Algorithm 1, lines 6-13: consult and DELETE. The history hit adjusts
  // this object's own placement (per-object override) and nudges the
  // judged expert's ambient weight through the duel counters.
  pending_override_ = 0;
  // An id can be resident in BOTH lists (each list only self-dedupes on
  // add): evicted once as MRU-inserted, later as LRU-inserted. The paper's
  // DELETE must clear every record of the object on a history hit —
  // leaving the other list's record behind injects stale, contradictory
  // override evidence on a later miss. H_m evidence (the more recent
  // judgement of an MRU placement) takes precedence for the override.
  bool hm_was_hit = false;
  bool hl_was_hit = false;
  const bool in_hm = hm_.erase_hashed(req.id, h, nullptr, &hm_was_hit);
  const bool in_hl = hl_.erase_hashed(req.id, h, nullptr, &hl_was_hit);
  if (!in_hm && !in_hl) return;
  // Per-object adjustment (§3.2: "the insertion position of the object
  // should be adjusted"), applied with a probability driven by the
  // Algorithm-2 learning rate: when overrides help the window hit rate,
  // lambda grows and they fire more often; when they hurt, it decays.
  // Ghost evidence deliberately does NOT feed the duel counters — its
  // event rate is an order of magnitude above the monitors' slice rate and
  // would drown the paired comparison that anchors the global weights.
  // (Computed only past the early return: most misses hit neither list,
  // and lambda is pure, so skipping it there cannot change any decision.)
  const double p_apply = std::min(1.0, 2.0 * lr_.lambda());
  if (!params_.per_object_override || !rng_.chance(p_apply)) return;
  if (in_hm) {
    // Hit token False (ASC-IP's ZRO signal): its MRU placement wasted a
    // full traversal without a single hit — a ZRO. Exile this insertion.
    // A victim that WAS hit and still evicted was flushed under pressure
    // (e.g. a scan): demonstrably reusable — keep it at MRU.
    pending_override_ = hm_was_hit ? +1 : -1;
  } else {
    // Its LRU placement threw away a would-be hit.
    pending_override_ = +1;
  }
  pending_override_id_ = req.id;
}

inline bool ScipAdvisor::choose_mru_for_miss(const Request& req) {
  bool mru;
  if (pending_override_ != 0 && pending_override_id_ == req.id) {
    mru = pending_override_ > 0;
    pending_override_ = 0;
    ++overrides_;
  } else {
    mru = w_miss_ > rng_.uniform();
  }
  ++(mru ? miss_mru_inserts_ : miss_lru_inserts_);
  return mru;
}

inline bool ScipAdvisor::choose_mru_for_hit(const Request& /*req*/,
                                            std::uint32_t residency_hits) {
  // Promotion is a special insertion: SELECT over the promotion weights.
  // An "LIP" outcome re-inserts the hit object near the LRU end — the
  // treatment of a suspected P-ZRO. The suspicion only applies to the
  // P-ZRO risk class (first residency hit); proven-live objects promote.
  if (residency_hits > 1) return true;
  ++prom_decisions_;
  const bool mru = w_prom_ > rng_.uniform();
  if (!mru) ++prom_demotions_;
  return mru;
}

inline void ScipAdvisor::on_evict_hashed(std::uint64_t id, std::uint64_t size,
                                         bool was_mru_inserted, bool had_hits,
                                         std::uint64_t h) {
  // Algorithm 1, lines 15-19 (ADD keeps each list FIFO).
  if (was_mru_inserted) {
    hm_.add_hashed(id, size, had_hits, h);
  } else {
    hl_.add_hashed(id, size, had_hits, h);
  }
}

inline void ScipAdvisor::on_request_hashed(const Request& req, bool hit,
                                           std::uint64_t h) {
  // Feed the shadow-monitor duels from disjoint 1/2^shift traffic slices.
  if (params_.use_monitors) {
    using Outcome = ShadowMonitor::Outcome;
    const std::uint64_t miss_slice =
        h & ((1ULL << params_.monitor_slice_shift) - 1);
    // kExcluded outcomes (object can't fit the 1/32-scale monitor at all)
    // leave the duel counters alone: the miss is structural, not evidence
    // about the arm's insertion policy. Before this rule such objects
    // pushed psel toward whichever arm their hash slice happened to feed.
    bool psel_moved = false;
    if (miss_slice == 0) {
      if (mon_mru_.access(req, h) == Outcome::kMiss) {
        --psel_miss_;
        psel_moved = true;
      }
    } else if (miss_slice == 1) {
      if (mon_lip_.access(req, h) == Outcome::kMiss) {
        ++psel_miss_;
        psel_moved = true;
      }
    }
    // The promotion duel slices with monitor_slice_shift, exactly like the
    // miss duel, from the next (disjoint) block of hash bits. Masking with
    // monitor_cap_shift here once fed each promotion monitor a 1/32 traffic
    // slice into a 1/32-capacity cache, silently dropping the documented 2x
    // relative capacity and biasing the P-ZRO demotion evidence.
    const std::uint64_t prom_slice =
        (h >> params_.monitor_slice_shift) &
        ((1ULL << params_.monitor_slice_shift) - 1);
    if (miss_slice <= 1) ++miss_duel_feeds_;
    if (prom_slice <= 1) ++prom_duel_feeds_;
    if (prom_slice == 0) {
      if (mon_mru_prom_.access(req, h) == Outcome::kMiss) {
        --psel_prom_;
        psel_moved = true;
      }
    } else if (prom_slice == 1) {
      if (mon_demote_.access(req, h) == Outcome::kMiss) {
        ++psel_prom_;
        psel_moved = true;
      }
    }
    // The weights are a pure bimodal function of the clamped counters, so
    // recomputing them is only meaningful when a counter actually moved —
    // previously both ran on every monitored request (~every request on
    // the replay hot path) for a result that changes at most twice per
    // duel swing.
    if (psel_moved) {
      psel_miss_ =
          std::clamp(psel_miss_, -params_.psel_max, params_.psel_max);
      psel_prom_ = std::clamp(psel_prom_, -params_.prom_psel_max,
                              params_.prom_psel_max);
      update_weights_from_psel();
    }
  }

  // Algorithm 2: adapt lambda (the evidence-nudge magnitude) on the window
  // hit rate.
  ++window_requests_;
  if (hit) ++window_hits_;
  if (window_requests_ >= params_.update_interval) {
    lr_.update(static_cast<double>(window_hits_) /
                   static_cast<double>(window_requests_),
               rng_);
    window_hits_ = 0;
    window_requests_ = 0;
  }
}

/// SCI (Algorithm 3): the ablation without the promotion half — hit objects
/// always go back to the MRU position; misses keep the full machinery.
class SciAdvisor final : public ScipAdvisor {
 public:
  using ScipAdvisor::ScipAdvisor;
  bool choose_mru_for_hit(const Request& /*req*/,
                          std::uint32_t /*residency_hits*/) override {
    return true;
  }
  [[nodiscard]] const char* tag() const override { return "SCI"; }
};

}  // namespace cdn
