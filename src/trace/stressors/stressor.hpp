// Nonstationary workload stressors: composable per-request transforms that
// wrap any existing trace generator.
//
// Every generator in trace/generator.hpp is a stationary Zipf fit of the
// paper's Table 1, so the reproduction never exercised the adaptation SCIP's
// set-dueling machinery exists for (SCION, PAPERS.md: fixed policies invert
// their ranking under nonstationary object workloads). A stressor rewrites
// the id/size stream of a base trace in place — popularity drift, flash
// crowds, scan floods, working-set churn, object-size mixtures — while
// emitting a standard `Trace`, so every policy, bench, `ParallelSweep`, and
// the `Topology`/`LoadGen` path consume stressed workloads unchanged.
//
// Determinism contract: all randomness flows from the explicit seeds below
// through `Rng` (util/rng.hpp) — never wall-clock, never global state — so
// the same (base trace, chain, seed) triple always yields the same stressed
// trace, bit for bit (pinned by test_stressors).
//
// Two latent stationarity assumptions in the rest of the tree constrain any
// id-rewriting transform, and `apply_stressors` discharges both centrally:
//
//  * Per-id size stability. Policies fix an object's byte size at admission
//    (LruQueue nodes never resize on hit) and `working_set_bytes`/
//    `compute_stats` count the first size seen, so a stream in which one id
//    appears with two sizes silently corrupts byte accounting. A naive id
//    rewrite creates exactly that (two rewritten requests inherit their
//    victims' unrelated sizes), so apply_stressors canonicalizes: the first
//    size observed for an id is the size every later request to it carries.
//
//  * Oracle-annotation staleness. `Request::next` indices are computed from
//    the id sequence; rewriting ids silently invalidates them while
//    `is_annotated()` still passes (it checks shape, not correctness — see
//    annotation_current() in trace/oracle.hpp). apply_stressors therefore
//    resets every `next` to the unannotated state; consumers re-run
//    annotate_next_access() on the stressed trace.
//
// Id-space carve-up (disjoint from the generator's catalog ids [1, catalog],
// fresh ids at 1<<40 and loop ids at 1<<42):
//   flash-crowd hot sets   1<<43
//   scan-flood one-hits    1<<44
//   working-set churn      1<<45
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/request.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace cdn::stress {

/// Log-normal object-size model for ids a stressor mints itself. Sizes are
/// a pure function of (id, salt, model) — see stable_size() — so the per-id
/// size-stability invariant holds by construction.
struct SizeModel {
  double mean = 44'000;  ///< target mean of the log-normal
  double sigma = 1.3;
  std::uint64_t min_size = 2;
  std::uint64_t max_size = 20ULL << 20;
};

/// Deterministic per-id size draw from `model` (same id + salt -> same
/// size, regardless of when or how often it is requested).
[[nodiscard]] std::uint64_t stable_size(std::uint64_t id, std::uint64_t salt,
                                        const SizeModel& model);

/// One composable transform over a request stream. Stateful (phase caches,
/// id counters); build a fresh chain per trace. `transform` is called once
/// per request in trace order with the request's index and a per-stressor
/// RNG owned by apply_stressors.
class Stressor {
 public:
  virtual ~Stressor() = default;

  Stressor(const Stressor&) = delete;
  Stressor& operator=(const Stressor&) = delete;

  /// Short kebab name used in stressed-trace names ("drift", "flash", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Rewrites `req` (id and/or size) for request index `i`.
  virtual void transform(std::size_t i, Request& req, Rng& rng) = 0;

 protected:
  Stressor() = default;
};

using StressorPtr = std::unique_ptr<Stressor>;

// ---------------------------------------------------------------- drift --

/// Diurnal popularity drift: a phase-rotating rank permutation over the
/// catalog id range. Every `phase_length` requests the ids in
/// [id_lo, id_hi] are remapped through a fresh Fisher-Yates permutation
/// keyed by (seed, phase), so the popularity *law* (the Zipf marginal) is
/// preserved within each phase while the identity of every hot object
/// changes at each boundary — the cache must re-learn its resident set from
/// scratch. Phase 0 is the identity (the stressed trace starts equal to the
/// base), mirroring a trace that begins at the top of a diurnal cycle.
struct DriftConfig {
  std::size_t phase_length = 100'000;  ///< requests per popularity phase
  std::uint64_t id_lo = 1;             ///< permuted id range, inclusive
  std::uint64_t id_hi = 100'000;
  std::uint64_t seed = 0xd21f7;
};

class DriftStressor final : public Stressor {
 public:
  explicit DriftStressor(const DriftConfig& cfg);

  [[nodiscard]] std::string name() const override { return "drift"; }
  void transform(std::size_t i, Request& req, Rng& rng) override;

  /// Pure function of (config, phase): where `id` lands in `phase`. Lets
  /// tests reconstruct per-phase rank marginals without re-deriving the
  /// permutation from observed data.
  [[nodiscard]] std::uint64_t mapped(std::uint64_t id,
                                     std::size_t phase) const;

  [[nodiscard]] std::size_t phase_of(std::size_t i) const {
    return i / cfg_.phase_length;
  }

 private:
  [[nodiscard]] std::vector<std::uint32_t> build_perm(
      std::size_t phase) const;

  DriftConfig cfg_;
  std::size_t cached_phase_ = 0;
  std::vector<std::uint32_t> perm_;  ///< empty = identity (phase 0)
};

// ---------------------------------------------------------------- flash --

/// Flash crowds: every `interval` requests a fresh hot set of
/// `hot_objects` never-seen-before ids arrives; for the event's duration a
/// request is redirected to the hot set with probability ramping linearly
/// from 0 to `peak` over `ramp` requests, then holding at `peak` for `hold`
/// requests. Within the hot set popularity is Zipf(hot_alpha) — flash
/// traffic is itself heavily skewed. Each event rotates to a disjoint hot
/// set (the previous crowd goes cold instantly).
struct FlashCrowdConfig {
  std::size_t interval = 200'000;  ///< event period, in requests
  std::size_t ramp = 20'000;       ///< linear ramp-in length
  std::size_t hold = 40'000;       ///< full-intensity length
  double peak = 0.5;               ///< redirect probability at full ramp
  std::size_t hot_objects = 64;    ///< hot-set size per event
  double hot_alpha = 1.0;          ///< Zipf skew within the hot set
  std::uint64_t id_base = 1ULL << 43;
  std::uint64_t seed = 0xf1a54;
  SizeModel sizes{30'000, 1.1, 64, 4ULL << 20};  ///< small web objects
};

class FlashCrowdStressor final : public Stressor {
 public:
  explicit FlashCrowdStressor(const FlashCrowdConfig& cfg);

  [[nodiscard]] std::string name() const override { return "flash"; }
  void transform(std::size_t i, Request& req, Rng& rng) override;

  /// Id of hot-set member `k` (a Zipf rank, 0 = hottest) of event `event`.
  [[nodiscard]] std::uint64_t hot_id(std::size_t event, std::size_t k) const {
    return cfg_.id_base + static_cast<std::uint64_t>(event) *
                              static_cast<std::uint64_t>(cfg_.hot_objects) +
           static_cast<std::uint64_t>(k);
  }

  /// Redirect probability at request index `i` (0 outside event windows).
  [[nodiscard]] double redirect_probability(std::size_t i) const;

 private:
  FlashCrowdConfig cfg_;
  ZipfSampler hot_zipf_;  ///< one sampler, reused: every event has the same
                          ///< hot-set size, so the law never changes
};

// ----------------------------------------------------------------- scan --

/// Scan / one-hit-wonder floods: every `interval` requests, a window of
/// `length` requests is overwritten (with probability `intensity`) by
/// never-repeated fresh ids — a crawler sweep or backfill tearing through
/// the cache. Insertion policies are what keep such floods from flushing
/// the resident hot set.
struct ScanFloodConfig {
  std::size_t interval = 300'000;
  std::size_t length = 30'000;
  double intensity = 0.95;  ///< probability a window request is replaced
  std::uint64_t id_base = 1ULL << 44;
  std::uint64_t seed = 0x5ca9;
  SizeModel sizes{25'000, 1.0, 16, 2ULL << 20};
};

class ScanFloodStressor final : public Stressor {
 public:
  explicit ScanFloodStressor(const ScanFloodConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "scan"; }
  void transform(std::size_t i, Request& req, Rng& rng) override;

  [[nodiscard]] bool in_window(std::size_t i) const {
    return cfg_.interval != 0 && cfg_.length != 0 &&
           (i % cfg_.interval) < cfg_.length;
  }

 private:
  ScanFloodConfig cfg_;
  std::uint64_t next_fresh_ = 0;  ///< offset from cfg_.id_base
};

// ---------------------------------------------------------------- churn --

/// Working-set churn: the id space is divided into epochs of `interval`
/// requests; at each epoch boundary every id in [id_lo, id_hi] is retired
/// with probability `fraction` and replaced by a fresh id that inherits its
/// popularity (the new object takes over the old object's traffic — uploads
/// replacing deleted content). Retirement is cumulative and stateless: the
/// replacement id of a churned id can itself churn in a later epoch.
struct ChurnConfig {
  std::size_t interval = 150'000;  ///< epoch length, in requests
  double fraction = 0.10;          ///< retire probability per id per epoch
  std::uint64_t id_lo = 1;         ///< churnable id range (the catalog)
  std::uint64_t id_hi = 100'000;
  std::uint64_t id_base = 1ULL << 45;
  std::uint64_t seed = 0xc4a9;
  SizeModel sizes{44'000, 1.3, 2, 20ULL << 20};
};

class ChurnStressor final : public Stressor {
 public:
  explicit ChurnStressor(const ChurnConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "churn"; }
  void transform(std::size_t i, Request& req, Rng& rng) override;

  /// Pure function: the effective id of `id` after `epochs` churn epochs.
  [[nodiscard]] std::uint64_t mapped(std::uint64_t id,
                                     std::size_t epochs) const;

 private:
  ChurnConfig cfg_;
};

// --------------------------------------------------------------- sizemix --

/// Mixed video/photo/web object-size mixture: each id is assigned a content
/// class by a deterministic weighted hash, and its size is redrawn from the
/// class's model. Turns any base trace into one whose byte-miss behavior is
/// dominated by a small number of huge objects (video) riding on a sea of
/// small ones (web) — the regime where size-aware policies (GDSF) separate
/// from recency-only ones.
struct SizeClassSpec {
  std::string label;
  double weight = 1.0;
  SizeModel model;
};

struct SizeMixConfig {
  std::vector<SizeClassSpec> classes;
  std::uint64_t seed = 0x512e;

  /// web 70% / photo 25% / video 5% — the canonical CDN mixture.
  [[nodiscard]] static SizeMixConfig web_photo_video();
};

class SizeMixStressor final : public Stressor {
 public:
  explicit SizeMixStressor(const SizeMixConfig& cfg);

  [[nodiscard]] std::string name() const override { return "sizemix"; }
  void transform(std::size_t i, Request& req, Rng& rng) override;

  /// Deterministic class index of `id`.
  [[nodiscard]] std::size_t class_of(std::uint64_t id) const;
  [[nodiscard]] const std::vector<SizeClassSpec>& classes() const {
    return cfg_.classes;
  }

 private:
  SizeMixConfig cfg_;
  std::vector<double> cum_weight_;  ///< normalized cumulative class weights
};

// ---------------------------------------------------------------- apply --

/// Runs `chain` over a copy of `base`, in chain order per request, and
/// returns the stressed trace. Each stressor draws from its own Rng stream
/// derived from (seed, chain position), so inserting or removing one
/// stressor never perturbs another's draws. The result upholds the two
/// invariants documented above: every id maps to exactly one size (first
/// size observed wins), and all oracle annotations are reset to the
/// unannotated state (`next` == -1) — rerun annotate_next_access() if the
/// consumer needs them.
[[nodiscard]] Trace apply_stressors(const Trace& base,
                                    const std::vector<StressorPtr>& chain,
                                    std::uint64_t seed);

/// "base+drift+flash"-style name for a stressed trace.
[[nodiscard]] std::string chain_name(const std::string& base_name,
                                     const std::vector<StressorPtr>& chain);

}  // namespace cdn::stress
