#include "trace/stressors/stressor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace cdn::stress {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// Uniform double in [0, 1) as a pure function of a 64-bit hash.
double unit_of(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::uint64_t stable_size(std::uint64_t id, std::uint64_t salt,
                          const SizeModel& model) {
  // Throwaway RNG keyed by (id, salt): the same id always draws the same
  // size, mirroring generator.cpp's size_of.
  Rng rng(hash64(id ^ 0x517ab1e512e5ULL) ^ salt);
  const double sigma = model.sigma;
  const double mu = std::log(model.mean) - 0.5 * sigma * sigma;
  double s = rng.lognormal(mu, sigma);
  s = std::clamp(s, static_cast<double>(model.min_size),
                 static_cast<double>(model.max_size));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(s));
}

// ---------------------------------------------------------------- drift --

DriftStressor::DriftStressor(const DriftConfig& cfg) : cfg_(cfg) {
  if (cfg_.phase_length == 0) {
    throw std::invalid_argument("DriftStressor: phase_length must be > 0");
  }
  if (cfg_.id_hi < cfg_.id_lo) {
    throw std::invalid_argument("DriftStressor: id_hi < id_lo");
  }
  const std::uint64_t range = cfg_.id_hi - cfg_.id_lo + 1;
  if (range > 0xffffffffULL) {
    throw std::invalid_argument("DriftStressor: id range exceeds 2^32");
  }
}

std::vector<std::uint32_t> DriftStressor::build_perm(std::size_t phase) const {
  const auto n = static_cast<std::uint32_t>(cfg_.id_hi - cfg_.id_lo + 1);
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t k = 0; k < n; ++k) perm[k] = k;
  if (phase == 0) return perm;  // identity: trace starts unstressed
  // Fisher-Yates keyed by (seed, phase) only — mapped() must be a pure
  // function of the config so tests can reconstruct phase marginals.
  Rng rng(hash64(cfg_.seed ^ (static_cast<std::uint64_t>(phase) * kGolden)));
  for (std::uint32_t k = n; k > 1; --k) {
    const auto j = static_cast<std::uint32_t>(rng.below(k));
    std::swap(perm[k - 1], perm[j]);
  }
  return perm;
}

std::uint64_t DriftStressor::mapped(std::uint64_t id,
                                    std::size_t phase) const {
  if (id < cfg_.id_lo || id > cfg_.id_hi || phase == 0) return id;
  const std::vector<std::uint32_t> perm = build_perm(phase);
  return cfg_.id_lo + perm[id - cfg_.id_lo];
}

void DriftStressor::transform(std::size_t i, Request& req, Rng& /*rng*/) {
  const std::size_t phase = phase_of(i);
  if (phase == 0 || req.id < cfg_.id_lo || req.id > cfg_.id_hi) return;
  if (perm_.empty() || phase != cached_phase_) {
    perm_ = build_perm(phase);
    cached_phase_ = phase;
  }
  req.id = cfg_.id_lo + perm_[req.id - cfg_.id_lo];
  // Size intentionally untouched: the permuted id is another catalog id
  // whose canonical size apply_stressors pins from its first appearance.
}

// ---------------------------------------------------------------- flash --

FlashCrowdStressor::FlashCrowdStressor(const FlashCrowdConfig& cfg)
    : cfg_(cfg), hot_zipf_(std::max<std::size_t>(1, cfg.hot_objects),
                           cfg.hot_alpha) {
  if (cfg_.interval == 0) {
    throw std::invalid_argument("FlashCrowdStressor: interval must be > 0");
  }
  if (cfg_.ramp + cfg_.hold > cfg_.interval) {
    throw std::invalid_argument(
        "FlashCrowdStressor: ramp + hold exceeds interval");
  }
  if (cfg_.hot_objects == 0) {
    throw std::invalid_argument("FlashCrowdStressor: empty hot set");
  }
}

double FlashCrowdStressor::redirect_probability(std::size_t i) const {
  const std::size_t pos = i % cfg_.interval;
  if (cfg_.ramp != 0 && pos < cfg_.ramp) {
    return cfg_.peak * (static_cast<double>(pos) /
                        static_cast<double>(cfg_.ramp));
  }
  if (pos < cfg_.ramp + cfg_.hold) return cfg_.peak;
  return 0.0;
}

void FlashCrowdStressor::transform(std::size_t i, Request& req, Rng& rng) {
  const double p = redirect_probability(i);
  if (p <= 0.0 || !rng.chance(p)) return;
  const std::size_t event = i / cfg_.interval;
  const std::size_t rank = hot_zipf_.sample(rng);
  req.id = hot_id(event, rank);
  req.size = stable_size(req.id, cfg_.seed, cfg_.sizes);
}

// ----------------------------------------------------------------- scan --

void ScanFloodStressor::transform(std::size_t i, Request& req, Rng& rng) {
  if (!in_window(i) || !rng.chance(cfg_.intensity)) return;
  req.id = cfg_.id_base + next_fresh_++;
  req.size = stable_size(req.id, cfg_.seed, cfg_.sizes);
}

// ---------------------------------------------------------------- churn --

std::uint64_t ChurnStressor::mapped(std::uint64_t id,
                                    std::size_t epochs) const {
  if (id < cfg_.id_lo || id > cfg_.id_hi) return id;
  std::uint64_t cur = id;
  // Cumulative stateless walk: replaying the retire decision of every past
  // epoch in order keeps the mapping a pure function of (config, epochs)
  // with no per-id state — and lets a replacement id churn again later.
  for (std::size_t k = 1; k <= epochs; ++k) {
    const std::uint64_t key =
        hash64(cfg_.seed ^ (static_cast<std::uint64_t>(k) * kGolden));
    if (unit_of(hash64(cur ^ key)) < cfg_.fraction) {
      cur = cfg_.id_base | (hash64(cur ^ key ^ 0xdeadULL) >> 8);
    }
  }
  return cur;
}

void ChurnStressor::transform(std::size_t i, Request& req, Rng& /*rng*/) {
  if (cfg_.interval == 0 || req.id < cfg_.id_lo || req.id > cfg_.id_hi) {
    return;
  }
  const std::uint64_t cur = mapped(req.id, i / cfg_.interval);
  if (cur == req.id) return;
  req.id = cur;
  req.size = stable_size(cur, cfg_.seed, cfg_.sizes);
}

// --------------------------------------------------------------- sizemix --

SizeMixConfig SizeMixConfig::web_photo_video() {
  SizeMixConfig cfg;
  cfg.classes = {
      {"web", 0.70, SizeModel{18'000, 1.1, 128, 4ULL << 20}},
      {"photo", 0.25, SizeModel{250'000, 0.9, 4'096, 16ULL << 20}},
      {"video", 0.05, SizeModel{2'000'000, 1.0, 65'536, 64ULL << 20}},
  };
  return cfg;
}

SizeMixStressor::SizeMixStressor(const SizeMixConfig& cfg) : cfg_(cfg) {
  if (cfg_.classes.empty()) {
    throw std::invalid_argument("SizeMixStressor: no size classes");
  }
  double total = 0.0;
  for (const auto& c : cfg_.classes) {
    if (!(c.weight > 0.0)) {
      throw std::invalid_argument("SizeMixStressor: non-positive weight");
    }
    total += c.weight;
  }
  double cum = 0.0;
  cum_weight_.reserve(cfg_.classes.size());
  for (const auto& c : cfg_.classes) {
    cum += c.weight / total;
    cum_weight_.push_back(cum);
  }
  cum_weight_.back() = 1.0;  // guard against rounding shortfall
}

std::size_t SizeMixStressor::class_of(std::uint64_t id) const {
  const double u = unit_of(hash64(id ^ cfg_.seed));
  for (std::size_t c = 0; c < cum_weight_.size(); ++c) {
    if (u < cum_weight_[c]) return c;
  }
  return cum_weight_.size() - 1;
}

void SizeMixStressor::transform(std::size_t /*i*/, Request& req,
                                Rng& /*rng*/) {
  const std::size_t c = class_of(req.id);
  req.size = stable_size(
      req.id, cfg_.seed ^ (static_cast<std::uint64_t>(c + 1) * kGolden),
      cfg_.classes[c].model);
}

// ---------------------------------------------------------------- apply --

std::string chain_name(const std::string& base_name,
                       const std::vector<StressorPtr>& chain) {
  std::string name = base_name;
  for (const auto& s : chain) {
    name += '+';
    name += s->name();
  }
  return name;
}

Trace apply_stressors(const Trace& base,
                      const std::vector<StressorPtr>& chain,
                      std::uint64_t seed) {
  Trace out;
  out.name = chain_name(base.name, chain);
  out.requests = base.requests;

  // One independent stream per chain position: adding or removing a
  // stressor never perturbs the draws of the others.
  std::vector<Rng> streams;
  streams.reserve(chain.size());
  for (std::size_t s = 0; s < chain.size(); ++s) {
    streams.emplace_back(
        hash64(seed ^ (static_cast<std::uint64_t>(s + 1) * kGolden)));
  }

  // First size observed for an id is the size every later request to it
  // carries — the per-id size-stability invariant the policy layer assumes
  // (see the header comment). Lookup-only: never iterated, so the map's
  // order cannot leak into the output.
  std::unordered_map<std::uint64_t, std::uint64_t> canonical_size;
  canonical_size.reserve(out.requests.size() / 2);

  for (std::size_t i = 0; i < out.requests.size(); ++i) {
    Request& req = out.requests[i];
    for (std::size_t s = 0; s < chain.size(); ++s) {
      chain[s]->transform(i, req, streams[s]);
    }
    const auto [it, inserted] = canonical_size.try_emplace(req.id, req.size);
    req.size = it->second;
    // Id rewrites invalidate next-access indices computed on the base
    // trace; reset to the unannotated state so stale oracles cannot leak
    // (Belady refuses unannotated traces; annotation_current() detects
    // stale ones).
    req.next = -1;
  }
  return out;
}

}  // namespace cdn::stress
