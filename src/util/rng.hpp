// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component in the library (BIP coin flips, MAB restarts,
// genetic mutation, sampled evictions, trace synthesis) takes an explicit
// `Rng` so experiments are reproducible bit-for-bit across runs and across
// threads (each worker owns an independently seeded Rng).
//
// The engine is xoshiro256** seeded through SplitMix64, which is fast,
// high-quality, and has a tiny state (32 bytes) so per-policy embedded RNGs
// cost almost nothing.
#pragma once

#include <cstdint>
#include <limits>

namespace cdn {

/// SplitMix64 step; used for seeding and as a cheap stateless hash.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Mixes a 64-bit value into a well-distributed 64-bit hash. The splitmix64
/// finalizer, inline because it sits on the per-request hot path (every
/// LruQueue and FifoHistory index probe starts here).
[[nodiscard]] inline std::uint64_t hash64(std::uint64_t x) noexcept {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace detail {
[[nodiscard]] inline std::uint64_t rotl64(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

/// xoshiro256** PRNG with convenience distributions. The uniform-draw core
/// (next / uniform / below / chance) is defined inline: SCIP consumes one
/// draw per admitted miss and per risk-class promotion, so the generator
/// sits on the policy hot path (and only on SCIP's side of the SCIP-vs-LRU
/// replay ratio — plain LRU never draws).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Raw 64 bits.
  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = detail::rotl64(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl64(s_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface (usable with <random> adapters).
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded generation.
    const std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard normal via Box-Muller (uses cached second value).
  [[nodiscard]] double normal() noexcept;

  /// Log-normal with the given parameters of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Pareto with scale xm > 0 and shape alpha > 0.
  [[nodiscard]] double pareto(double xm, double alpha) noexcept;

  /// Exponential with rate lambda > 0.
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Derives an independent child generator (for per-thread streams).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cdn
