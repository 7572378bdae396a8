// Order statistics over raw samples. Latency percentiles are taken from the
// full per-request sample arrays, sorted after the run, so a percentile
// moves by the measured amount and not in histogram-bucket steps.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted array: the smallest
/// sample with at least a fraction `p` of the samples at or below it
/// (`sorted[ceil(p * n) - 1]`, and `sorted[0]` for p == 0).
template <typename T>
[[nodiscard]] T percentile_sorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument("p outside [0,1]");
  const auto n = static_cast<double>(sorted.size());
  // The epsilon keeps products such as 0.99 * 100 (= 99.00000000000001 in
  // binary) on the intended rank.
  const double rank = std::ceil(p * n - 1e-9);
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Number of samples strictly above the nearest-rank `p` percentile's
/// position, i.e. how many samples the percentile rests on from above.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return n > r ? n - r : 0;
}

/// Element-wise minimum: `into[i] = min(into[i], sample[i])`, or a copy of
/// `sample` when `into` is empty. Over repeated passes of the same work this
/// keeps each item's fastest pass: the lower envelope, which interference
/// from other tenants of the host (it only ever adds time) cannot move.
template <typename T>
void min_into(std::vector<T>& into, const std::vector<T>& sample) {
  if (into.empty()) {
    into = sample;
    return;
  }
  if (into.size() != sample.size()) {
    throw std::invalid_argument("min_into: sizes differ");
  }
  for (std::size_t i = 0; i < into.size(); ++i) {
    into[i] = std::min(into[i], sample[i]);
  }
}

/// Median (mean of the middle pair for even counts); takes a copy.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
