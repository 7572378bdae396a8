#include "policies/insertion/dgippr.hpp"

#include <algorithm>

namespace cdn {

DgipprCache::DgipprCache(std::uint64_t capacity_bytes, std::uint64_t seed)
    : SegmentedCache(capacity_bytes), rng_(seed) {
  population_.resize(kPopulation);
  for (auto& g : population_) {
    g.insert_level = static_cast<int>(rng_.below(kLevels));
    g.promote_step = static_cast<int>(rng_.below(kLevels));
  }
}

void DgipprCache::next_genome() {
  Genome& g = population_[current_];
  g.fitness = epoch_requests_ > 0
                  ? static_cast<double>(epoch_hits_) /
                        static_cast<double>(epoch_requests_)
                  : 0.0;
  g.scored = true;
  epoch_requests_ = 0;
  epoch_hits_ = 0;
  ++current_;
  if (current_ >= population_.size()) {
    evolve();
    current_ = 0;
  }
}

void DgipprCache::evolve() {
  ++generations_;
  // Elitist steady-state GA: keep the top half, refill with tournament
  // crossover + mutation.
  std::sort(population_.begin(), population_.end(),
            [](const Genome& a, const Genome& b) {
              return a.fitness > b.fitness;
            });
  const std::size_t keep = population_.size() / 2;
  for (std::size_t i = keep; i < population_.size(); ++i) {
    const Genome& pa = population_[rng_.below(keep)];
    const Genome& pb = population_[rng_.below(keep)];
    Genome child;
    child.insert_level = rng_.chance(0.5) ? pa.insert_level : pb.insert_level;
    child.promote_step = rng_.chance(0.5) ? pa.promote_step : pb.promote_step;
    if (rng_.chance(0.2)) {
      child.insert_level = static_cast<int>(rng_.below(kLevels));
    }
    if (rng_.chance(0.2)) {
      child.promote_step = static_cast<int>(rng_.below(kLevels));
    }
    population_[i] = child;
  }
  for (auto& g : population_) g.scored = false;
}

bool DgipprCache::access_hashed(const Request& req, std::uint64_t h) {
  ++tick_;
  ++epoch_requests_;
  const Genome& g = population_[current_];

  bool hit = false;
  if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
    hit = true;
    ++epoch_hits_;
    hit_to(*n,
           std::min(static_cast<int>(n->list()) + g.promote_step, kLevels - 1),
           true);
    rebalance();
  } else if (fits_segment(req.size)) {
    insert_hashed(req.id, req.size, h, g.insert_level, true);
    rebalance();
  }

  if (epoch_requests_ >= kEpoch) next_genome();
  return hit;
}

std::uint64_t DgipprCache::metadata_bytes() const {
  return SegmentedCache::metadata_bytes() +
         population_.size() * sizeof(Genome);
}

}  // namespace cdn
