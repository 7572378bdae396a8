// DGIPPR — genetic insertion and promotion for PseudoLRU replacement
// (Jiménez, MICRO 2013), adapted from set-associative PseudoLRU to a byte
// cache.
//
// The original evolves, with a steady-state genetic algorithm, a vector of
// insertion/promotion positions for a 16-way PseudoLRU stack. Our queue has
// no fixed ways, so the genome is (insertion level, promotion step) over
// S4LRU's 4-level stack (sim/segmented_cache.hpp; level boundaries at
// quarters of the capacity): insertion places the
// object at the MRU end of its genome's level, promotion lifts a hit object
// `step` levels up. Each genome is evaluated on a fixed-length epoch of
// live traffic (fitness = epoch hit rate); after the population has been
// scored, tournament selection + crossover + mutation produce the next
// generation.
#pragma once

#include <vector>

#include "sim/segmented_cache.hpp"
#include "util/rng.hpp"

namespace cdn {

class DgipprCache final : public SegmentedCache {
 public:
  explicit DgipprCache(std::uint64_t capacity_bytes, std::uint64_t seed = 43);

  [[nodiscard]] std::string name() const override { return "DGIPPR"; }
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  [[nodiscard]] int generations() const noexcept { return generations_; }

  static constexpr std::size_t kPopulation = 8;
  static constexpr std::int64_t kEpoch = 20'000;  ///< requests per genome

  /// One individual of the population; metadata_bytes() charges its size.
  struct Genome {
    int insert_level = kLevels - 1;
    int promote_step = 1;
    double fitness = 0.0;
    bool scored = false;
  };

 private:
  void next_genome();
  void evolve();

  std::vector<Genome> population_;
  std::size_t current_ = 0;
  std::int64_t epoch_requests_ = 0;
  std::int64_t epoch_hits_ = 0;
  int generations_ = 0;
  Rng rng_;
};

}  // namespace cdn
