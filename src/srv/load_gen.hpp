// LoadGen: closed-loop deterministic load generator for a cluster::Topology
// (the lock-striped service is a one-tier topology).
//
// The input trace (from src/trace's seeded generators) is pre-sharded into
// per-worker request streams at construction time: worker w owns requests
// i with i % workers == w, copied into a contiguous buffer so the hot loop
// touches memory sequentially. The partition is a pure function of
// (trace, workers), so the request stream every worker drives is
// reproducible run to run — what varies under concurrency is only the
// interleaving of node-lock acquisitions.
//
// Each worker runs a closed loop: issue one batch via access_batch, wait
// for it to complete, immediately issue the next (no think time, no open-
// loop arrival process). Service latency is recorded per request as the
// wall duration of the access_batch call that carried it — the latency a
// batching client observes — into a per-worker LogHistogram. Workers share
// no mutable state; histograms and hit counters merge after the join
// (LogHistogram::merge), so the measurement path adds no atomics or locks
// to the request path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/topology.hpp"
#include "sim/flow_stats.hpp"
#include "trace/request.hpp"
#include "util/histogram.hpp"
#include "util/thread_pool.hpp"

namespace cdn::srv {

struct LoadGenOptions {
  std::size_t workers = 4;
  std::size_t batch_size = 256;
};

/// Request, hit and byte counters over every worker, plus timing.
struct LoadGenResult : FlowStats {
  double wall_seconds = 0.0;   ///< whole run, submit to last join
  LogHistogram latency_ns;     ///< per-request service latency, merged

  [[nodiscard]] double rps() const noexcept {
    return ratio_or_zero(requests, wall_seconds);
  }
  [[nodiscard]] std::uint64_t latency_p50_ns() const noexcept {
    return latency_ns.percentile(0.50);
  }
  [[nodiscard]] std::uint64_t latency_p99_ns() const noexcept {
    return latency_ns.percentile(0.99);
  }
  [[nodiscard]] std::uint64_t latency_p999_ns() const noexcept {
    return latency_ns.percentile(0.999);
  }
};

class LoadGen {
 public:
  /// Pre-shards `trace` across `opts.workers` streams. The trace is copied
  /// into per-worker buffers; the caller's Trace may be discarded after
  /// construction.
  LoadGen(const Trace& trace, const LoadGenOptions& opts);

  [[nodiscard]] std::size_t workers() const noexcept {
    return streams_.size();
  }
  /// Requests in worker w's stream (for partition tests).
  [[nodiscard]] const std::vector<Request>& stream(std::size_t w) const {
    return streams_[w];
  }

  /// Drives `cache` with every worker stream through `pool` and blocks
  /// until all streams are exhausted. Each call replays the same streams,
  /// so back-to-back runs against fresh caches measure the same work.
  [[nodiscard]] LoadGenResult run(cluster::Topology& cache,
                                  ThreadPool& pool) const;

 private:
  std::vector<std::vector<Request>> streams_;
  std::size_t batch_size_;
};

}  // namespace cdn::srv
