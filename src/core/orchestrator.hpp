// OrchestratorCache: online policy selection over a pool of shadow experts.
//
// SCION-style orchestration (PAPERS.md): no fixed policy wins every phase
// of a nonstationary CDN workload, but a selector that keeps every
// candidate warm in shadow and follows the current winner can track the
// per-phase best. The orchestrator runs k registry-constructed experts in
// shadow, every one replaying the SAME request stream. The shadows are
// EXACT virtual replicas: each sees every request at full capacity, so it
// is byte-for-byte the cache its expert would have been had it run live
// from request zero — the ACME design (Ari et al., "ACME: adaptive caching
// using multiple experts"), affordable because a shadow stores residency
// metadata only, never content (tens of bytes per object against tens of
// kilobytes of payload). Exactness matters because scoring fidelity is
// policy-dependent: scaled miniatures (sampled requests, shrunken
// capacity and sizes) kept LRU/S4LRU identical per window but let an
// admission-duel expert (TinyLFU) drift up to 9pp, enough to misrank it
// against LRU, since its admission decisions feed back into its own victim
// selection. Sharing one stream also makes the experts' losses directly
// comparable.
//
// Each shadow replays on a LANE, a thread of its own (core/shadow_lanes.hpp):
// the request thread appends every request that fits, with its hash, to a
// fixed ring and goes on to the live cache, while k lanes replay the ring
// concurrently. The request thread reads the shadows only at SYNC POINTS —
// a window close that scores or discards a warm-up window, metadata_bytes()
// and destruction — where it waits until every shadow has replayed every
// pushed request; a window's loss is then the change of that shadow's
// cumulative miss-byte counter since the previous window close, the same
// integer an in-thread replay would have summed. Hedge, hysteresis,
// switches and hand-off (which touches only the live cache) are therefore
// bitwise what a single-threaded orchestrator computes. Nothing reads a
// shadow between sync points, so the shadows could also be replayed a
// buffered window at a time on the request thread; that was rejected
// because the request that closes each window would then carry k x window
// replays, a latency spike every `window` requests (about 244 per 250k
// requests, i.e. at the p99.9 of a request-latency distribution). Lanes
// cost threads: one per expert, started only when orchestration is enabled
// and joined by the destructor. SimResult::cpu_seconds counts only the
// calling thread, so it excludes the shadows' work.
//
// Every `window` requests each expert's *byte* miss ratio — the metric
// CDNs bill by — forms a loss vector for a full-information DISCOUNTED
// Hedge learner (ml/mab.hpp; Hedge is invariant to per-window offsets, so
// the window's intrinsic difficulty cancels between experts,
// and the discount bounds the learner's memory so a regime REVERSAL —
// drift handing leadership back — flips the ranking within ~1/(1-decay)
// windows instead of after the incumbent's whole lead is repaid). The live
// policy switches when the incumbent has been DOMINATED — some expert's
// Hedge probability exceeding the incumbent's by `switch_margin` — for
// `hysteresis` consecutive windows (and the incumbent has ruled for at
// least `min_dwell_windows`); the switch lands on whichever expert leads
// at the trigger. Domination is counted against the incumbent rather than
// for one fixed challenger, so two co-dominating experts trading the top
// spot cannot filibuster each other's hysteresis count while the incumbent
// is clearly beaten. The incumbent's discounted per-window loss gap to the
// best expert is additionally tracked and exported as `orch.regret` — a
// diagnostic for WHY a switch fired (or what staying put cost), not a
// trigger: measured on the stress suite it cannot distinguish a drift
// cycle that later swings back from a permanent regime death (see
// OrchestratorParams::switch_margin).
//
// A switch constructs the new policy at full capacity and warms it by
// replaying the outgoing cache's residents through the successor's NORMAL
// admission path (the PR 9 warm-transfer shape, via Cache::for_each_resident
// — victims first, so the donor's most-protected objects land freshest).
// The replay is GEOMETRIC — each pass repeats the most-protected half of
// the previous pass, giving the resident ranked r from the top ~log2(N/r)
// accesses — because residency alone is a lossy transfer for stateful
// successors: S4LRU needs repeated hits to stratify its segments and
// TinyLFU's virgin sketch needs frequency mass before its admission duel
// stops rejecting the transferred working set. The successor may still
// refuse any object: hand-off never bypasses admission. Even so, hand-off
// cannot replicate a long-trained sketch, so the default pool starts the
// statistics-heavy expert (TinyLFU) live: switching OUT of it is cheap,
// switching INTO it mid-trace is the one residually lossy move.
//
// Windows in which the shadows saw no bytes (every request larger than
// the cache) are merged into the next window rather than scored — the
// zero-denominator rule pinned in SimResult's ratio accessors applies to
// expert scoring too, and "no evidence" must not move the learner.
// Below `monitor_min_bytes` of capacity the whole apparatus is
// disabled (no lane starts) and the orchestrator degrades to its initial
// expert.
//
// Thread safety: like every Cache, one caller at a time. Callers on
// several threads that serialize access() under a lock (a cluster node)
// are fine: the lock orders their ring writes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/shadow_lanes.hpp"
#include "ml/mab.hpp"
#include "obs/introspect.hpp"
#include "sim/cache.hpp"

namespace cdn {

struct OrchestratorParams {
  /// Registry names of the expert pool; must not include "Orchestrator".
  /// The default is a minimal BASIS of complementary policies — plain
  /// recency (LRU), segmented recency (S4LRU), frequency-filtered
  /// admission (TinyLFU) — not every registry policy: a redundant expert
  /// dilutes Hedge's probability mass and slows separation without
  /// expanding the reachable frontier (on our workload suite every
  /// scenario's best fixed policy is within epsilon of one of these
  /// three), and near-duplicate experts make weak wrong leaders more
  /// likely in the low-evidence early windows.
  std::vector<std::string> experts = {"LRU", "S4LRU", "TinyLFU"};
  /// Index of the expert that starts live. Defaults to the pool's
  /// statistics-heavy member (TinyLFU): hand-off transfers residency but
  /// not accumulated statistics, so switching INTO a sketch-based expert
  /// mid-trace is lossy while switching OUT of it is nearly free (header
  /// comment) — the safe starting seat is the one that is expensive to
  /// reach later.
  std::size_t initial = 2;
  std::uint64_t monitor_min_bytes = 2ULL << 20;  ///< shadow floor (SCIP's)
  std::size_t window = 1024;     ///< requests per scoring window
  /// Scorable windows discarded before the learner sees any evidence: the
  /// shadows start empty, so the first windows measure how fast each expert
  /// WARMS, not how well it caches — and Hedge's cumulative weights would
  /// remember that cold-start artifact for the rest of the run.
  int score_warmup_windows = 10;
  double eta = 8.0;              ///< Hedge learning rate
  /// Discount on the Hedge learner's cumulative losses (ml/mab.hpp):
  /// evidence older than ~1/(1-decay) windows fades out. Plain Hedge
  /// (decay = 1) must pay back the incumbent's ENTIRE accumulated lead
  /// before the ranking flips — under a drifting workload the incumbent's
  /// early dominance delays the correction switch by tens of windows, long
  /// after every recent window says it lost the regime. 0.9 puts the
  /// learner's memory (~10 windows) on the same scale as hysteresis + dwell,
  /// which remain the anti-thrash guards.
  double decay = 0.9;
  /// Exploration floor (BimodalBandit's rationale). Deliberately high: a
  /// saturated-but-wrong leader must be dethronable within a few windows,
  /// and the floor bounds how deep a challenger's weight can sink.
  double weight_floor = 0.05;
  /// Probability lead over the incumbent required to count a window as
  /// dominated. Deliberately LARGE: under the discounted learner a true
  /// regime hand-over saturates the winner's probability (+0.55..0.85 over
  /// the incumbent within a few windows), while weather — transient bursts
  /// favoring another expert — peaks in isolated windows at +0.45..0.53
  /// and decays. 0.50 with a 2-window hysteresis is the measured separator
  /// on the stress suite: every regime change we must follow clears it in
  /// consecutive windows, every excursion we must ignore crosses it at
  /// most one window at a time. (A loss-gap CUSUM was tried and CANNOT
  /// separate these: the discounted per-window regret of the incumbent
  /// measures nearly identical ~0.03 for a drift cycle that later swings
  /// back and for a permanent regime death — the orchestrator exports that
  /// EWMA as `orch.regret` for observability, but the switch trigger is
  /// the probability margin.)
  double switch_margin = 0.50;
  /// Switch friction. A switch is only ~free when the successor admits the
  /// donor's residents; experts with admission filters partially cold-start,
  /// so chasing short workload phases (e.g. burst waves a dozen windows
  /// long) loses more at the hand-offs than the per-phase winner gains.
  /// Hysteresis demands a DURABLE lead, dwell caps the switching rate.
  int hysteresis = 2;            ///< consecutive dominated windows required
  int min_dwell_windows = 16;    ///< minimum reign before the next switch
  std::uint64_t seed = 0x0c1;
};

class OrchestratorCache final : public Cache, public obs::Introspectable {
 public:
  OrchestratorCache(std::uint64_t capacity_bytes,
                    OrchestratorParams params = {});

  [[nodiscard]] std::string name() const override { return "Orchestrator"; }
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override;
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override;
  void prefetch(std::uint64_t id) const noexcept override;
  void prefetch_hashed(std::uint64_t id,
                       std::uint64_t h) const noexcept override;
  [[nodiscard]] std::uint64_t used_bytes() const override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override;

  [[nodiscard]] bool orchestration_enabled() const noexcept {
    return lanes_ != nullptr;
  }
  [[nodiscard]] std::size_t live_index() const noexcept { return live_idx_; }
  [[nodiscard]] const std::string& live_policy() const {
    return params_.experts[live_idx_];
  }
  [[nodiscard]] std::uint64_t switches() const noexcept { return switches_; }
  [[nodiscard]] std::uint64_t scored_windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] double expert_probability(std::size_t j) const {
    return bandit_.probability(j);
  }
  /// Discounted per-window regret of the incumbent vs the best expert —
  /// exported as the `orch.regret` diagnostic series; deliberately NOT the
  /// switch trigger (see OrchestratorParams::switch_margin).
  [[nodiscard]] double incumbent_regret() const noexcept {
    return regret_ewma_;
  }

  /// Operator-forced switch to expert `idx` (also used by the hand-off
  /// tests): same construction + warm-transfer path as a learned switch,
  /// but does not touch the learner's state or the hysteresis counters.
  void switch_now(std::size_t idx);

  /// Exports per-expert Hedge probabilities ("orch.p.<expert>"), the live
  /// expert index series, and cumulative switch/window counters.
  void sample_metrics(obs::MetricRegistry& reg) override;

 private:
  [[nodiscard]] std::uint64_t shadow_seed(std::size_t j) const;
  [[nodiscard]] std::uint64_t live_seed(std::size_t j) const;
  void close_window_if_scorable();
  void switch_to(std::size_t idx);

  OrchestratorParams params_;
  CachePtr live_;
  std::size_t live_idx_ = 0;
  /// The shadow experts, one lane each; null when orchestration is off
  /// (then no thread starts).
  std::unique_ptr<ShadowLanes> lanes_;
  ml::HedgeBandit bandit_;

  // Current-window byte counters (one shared denominator: every expert
  // replays the same requests). The window's byte misses of expert j are
  // lanes_->miss_bytes(j) - win_start_miss_[j], read at a sync point.
  std::uint64_t win_bytes_ = 0;
  std::vector<std::uint64_t> win_start_miss_;
  std::size_t window_reqs_ = 0;

  // Hysteresis state: consecutive windows the incumbent has been dominated
  // by switch_margin (by ANY expert — see header on filibuster avoidance),
  // plus the diagnostic regret EWMA (not a trigger — see header).
  double regret_ewma_ = 0.0;
  int lead_windows_ = 0;
  int windows_since_switch_ = 0;
  int warmup_windows_left_ = 0;  ///< scorable windows still to discard

  std::uint64_t switches_ = 0;
  std::uint64_t windows_ = 0;  ///< scored (non-merged) windows
};

}  // namespace cdn
