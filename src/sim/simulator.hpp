// Trace-driven simulation driver and its result record.
//
// Follows the measurement methodology of the LRB simulator the paper uses:
// caches start empty, metrics are reported both for the full run and with a
// warm-up prefix excluded, and byte- and object-granularity miss ratios are
// tracked separately. Resource metrics (wall time -> TPS, thread CPU time,
// peak policy metadata) feed the Fig. 9 / Fig. 11 reproductions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "sim/cache.hpp"
#include "sim/flow_stats.hpp"
#include "trace/columns.hpp"
#include "trace/request.hpp"

namespace cdn {

struct SimOptions {
  /// Windowed miss-ratio series granularity (requests per window).
  std::size_t window = 100'000;
  /// Fraction of the trace treated as warm-up (excluded from warm_* stats).
  double warmup_frac = 0.2;
  /// Sample metadata_bytes() every this many requests for the peak.
  std::size_t metadata_sample_every = 10'000;
  /// If set, sample the cache's obs::Introspectable state once per window
  /// (and once for a trailing partial window) and serialize the registry
  /// into SimResult::metrics_json. Off by default: introspection sampling
  /// is cheap but not free, and most sweeps only want the headline numbers.
  bool collect_policy_metrics = false;
  /// Optional destination for the finished MetricRegistry (called once at
  /// the end of simulate; see obs/sink.hpp). Implies metric collection.
  /// Non-owning; must outlive the simulate()/run_sweep() call.
  obs::MetricsSink* metrics_sink = nullptr;
};

struct SimResult {
  std::string policy;
  std::string trace;

  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_hit = 0;

  std::uint64_t warm_requests = 0;  ///< after warm-up
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_bytes_total = 0;
  std::uint64_t warm_bytes_hit = 0;

  std::vector<double> window_miss_ratios;

  /// Serialized "cdn-metrics" JSON document (obs/metrics.hpp) when the run
  /// collected policy metrics; empty otherwise. Deterministic: contains no
  /// timing, so identical runs produce identical blobs.
  std::string metrics_json;

  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t metadata_peak_bytes = 0;

  // Ratio accessors: a zero denominator reports 0.0, never NaN/inf (the
  // convention in sim/flow_stats.hpp, pinned by SimulatorEdge tests).
  [[nodiscard]] double object_miss_ratio() const {
    return miss_ratio_or_zero(hits, requests);
  }
  [[nodiscard]] double byte_miss_ratio() const {
    return miss_ratio_or_zero(bytes_hit, bytes_total);
  }
  [[nodiscard]] double warm_object_miss_ratio() const {
    return miss_ratio_or_zero(warm_hits, warm_requests);
  }
  [[nodiscard]] double warm_byte_miss_ratio() const {
    return miss_ratio_or_zero(warm_bytes_hit, warm_bytes_total);
  }
  /// Requests processed per wall-clock second (Fig. 9/11 "TPS").
  [[nodiscard]] double tps() const {
    return ratio_or_zero(requests, wall_seconds);
  }
};

/// Runs `trace` through `cache` and collects metrics.
[[nodiscard]] SimResult simulate(Cache& cache, const Trace& trace,
                                 const SimOptions& opts = {});

/// simulate() over a struct-of-arrays trace (trace/columns.hpp): the id and
/// size columns stream through cache instead of 32-byte Request records,
/// and the driver prefetches each cache's index slots a few requests ahead
/// off the id column. Over columns produced by to_columns(trace) with all
/// columns kept, the result is deterministically equal to
/// simulate(cache, trace) — both drive the cache with identical Requests in
/// identical order (the hot-path regression test pins this).
[[nodiscard]] SimResult simulate(Cache& cache, const TraceColumns& cols,
                                 const SimOptions& opts = {});

/// Number of leading requests simulate() excludes from warm_* stats:
/// floor(warmup_frac * n) in real arithmetic (clamped to [0, n]), with a
/// relative-epsilon guard so representable-intent products like 0.7 * 10
/// land on 7, not on the 6 a raw double floor produces.
[[nodiscard]] std::size_t warmup_request_count(double warmup_frac,
                                               std::size_t n);

/// One bench-report row for this result (see obs/bench_report.hpp): policy,
/// trace, requests, tps, full + warm miss ratios, metadata peak.
[[nodiscard]] obs::json::Value sim_result_row(const SimResult& r);

/// True if two results are equal in every deterministic field — everything
/// except wall/cpu seconds, which depend on machine load. This is the
/// equality the sweep-determinism contract ("no shared mutable state"
/// in sweep.hpp) is stated in.
[[nodiscard]] bool deterministic_equal(const SimResult& a, const SimResult& b);

}  // namespace cdn
