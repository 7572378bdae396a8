#include "layers.hpp"

#include "core/scip_cache.hpp"

namespace perfbench {

cdn::CachePtr make_timed_scip_lru(std::uint64_t capacity, std::uint64_t seed,
                                  std::shared_ptr<TimedAdvisor>* advisor_out) {
  // Mirrors make_scip_lru (core/sci_cache.cpp): same params, same seed mix.
  cdn::ScipParams p;
  p.seed = seed ^ 0x5c1b;
  auto advisor = std::make_shared<TimedAdvisor>(
      std::make_shared<cdn::ScipAdvisor>(capacity, p));
  if (advisor_out) *advisor_out = advisor;
  return std::make_unique<cdn::AdvisedLruCache>(capacity, advisor);
}

}  // namespace perfbench
