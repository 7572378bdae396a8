#include "core/ascip_cache.hpp"

#include <algorithm>

namespace cdn {

AscIpAdvisor::AscIpAdvisor(std::uint64_t cache_capacity, AscIpParams params)
    : params_(params),
      threshold_(params.initial_threshold),
      hl_(static_cast<std::uint64_t>(
          std::max(1.0, params.history_fraction *
                            static_cast<double>(cache_capacity)))) {}

void AscIpAdvisor::on_miss(const Request& req) {
  if (hl_.erase(0, req.id)) {
    // The LRU-inserted object came back: the threshold cut too deep.
    threshold_ = std::min(threshold_ * params_.grow, params_.max_threshold);
  }
}

bool AscIpAdvisor::choose_mru_for_miss(const Request& req) {
  return static_cast<double>(req.size) < threshold_;
}

void AscIpAdvisor::on_evict(std::uint64_t id, std::uint64_t size,
                            bool was_mru_inserted, bool had_hits) {
  if (was_mru_inserted) {
    if (!had_hits) {
      // Hit token False on an MRU-inserted object: a ZRO slipped under the
      // threshold; tighten it.
      threshold_ =
          std::max(threshold_ * params_.shrink, params_.min_threshold);
    }
  } else {
    hl_.add(0, id, size);
  }
}

std::uint64_t AscIpAdvisor::metadata_bytes() const {
  return hl_.metadata_bytes() + 32;
}

void AscIpAdvisor::sample_metrics(obs::MetricRegistry& reg) {
  reg.series("ascip.threshold").push(threshold_);
  reg.series("ascip.hl_objects").push(static_cast<double>(hl_.count(0)));
  reg.series("ascip.hl_bytes").push(static_cast<double>(hl_.used_bytes(0)));
}

}  // namespace cdn
