// Name-based cache factory: one place that knows how to construct every
// policy at a given capacity, so benches, examples and tests build their
// comparison grids from strings. Also provides the canonical policy lists
// for the paper's figure groups.
#pragma once

#include <string>
#include <vector>

#include "sim/cache.hpp"

namespace cdn {

/// Constructs a cache by policy name. Recognized names:
///   Insertion policies (LRU victim selection):
///     "LRU", "LIP", "BIP", "DIP", "PIPP", "SHiP", "DTA", "DGIPPR",
///     "DAAIP", "ASC-IP", "SCI", "SCIP"
///   Replacement algorithms:
///     "LRU-2" (LRU-K, K=2), "S4LRU", "SS-LRU", "GDSF", "LHD", "LeCaR",
///     "CACHEUS", "LRB", "GL-Cache", "Belady", "ARC", "LIRS", "RANDOM"
///   Admission policies:
///     "2Q", "TinyLFU", "AdaptSize", "SB-LRU"
///   Online policy orchestration:
///     "Orchestrator"
///   SCIP/ASC-IP integrations (Fig. 12, and S4LRU's multi-chain stack):
///     "LRU-2-SCIP", "LRU-2-ASC-IP", "LRB-SCIP", "LRB-ASC-IP", "S4LRU-SCIP"
/// Throws std::invalid_argument for unknown names.
/// `seed` perturbs every stochastic component deterministically.
[[nodiscard]] CachePtr make_cache(const std::string& name,
                                  std::uint64_t capacity_bytes,
                                  std::uint64_t seed = 1);

/// Fig. 8/9 group: the eight insertion-policy baselines + SCIP.
[[nodiscard]] const std::vector<std::string>& insertion_policy_names();

/// Fig. 10/11 group: the eight replacement baselines + SCIP.
[[nodiscard]] const std::vector<std::string>& replacement_policy_names();

/// Every registered name (for the policy-explorer example).
[[nodiscard]] std::vector<std::string> all_policy_names();

}  // namespace cdn
