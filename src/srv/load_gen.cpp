#include "srv/load_gen.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>

#include "util/stopwatch.hpp"

namespace cdn::srv {

LoadGen::LoadGen(const Trace& trace, const LoadGenOptions& opts)
    : batch_size_(std::max<std::size_t>(1, opts.batch_size)) {
  const std::size_t workers = std::max<std::size_t>(1, opts.workers);
  streams_.resize(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    streams_[w].reserve((trace.requests.size() + workers - 1 - w) / workers);
  }
  // Round-robin pre-sharding: preserves each worker's relative request
  // order and keeps the streams statistically alike (each sees the same
  // popularity mix), unlike contiguous splits which would hand the trace's
  // scan phases to single workers.
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    streams_[i % workers].push_back(trace.requests[i]);
  }
}

namespace {

struct WorkerTally {
  FlowStats flow;
  LogHistogram latency_ns;
};

WorkerTally drive_stream(ShardedCache& cache,
                         const std::vector<Request>& stream,
                         std::size_t batch_size, std::size_t worker_index) {
  WorkerTally tally;
  std::unique_ptr<bool[]> hits(new bool[batch_size]);
  for (std::size_t lo = 0; lo < stream.size(); lo += batch_size) {
    const std::size_t n = std::min(batch_size, stream.size() - lo);
    Stopwatch sw;
    cache.access_batch(stream.data() + lo, n, hits.get(), worker_index);
    const double secs = sw.seconds();
    // The whole batch is one service call; every request in it waited for
    // the call, so each is charged the batch duration.
    const auto ns = static_cast<std::uint64_t>(
        std::max(0.0, std::round(secs * 1e9)));
    tally.latency_ns.add(ns, n);
    for (std::size_t i = 0; i < n; ++i) {
      tally.flow.record(stream[lo + i].size, hits[i]);
    }
  }
  return tally;
}

/// Generic-target worker loop: one access() per request, batch-windowed
/// latency. Mirrors drive_stream's accounting exactly so results from the
/// two paths are comparable row-for-row.
WorkerTally drive_stream_generic(Cache& cache,
                                 const std::vector<Request>& stream,
                                 std::size_t batch_size) {
  WorkerTally tally;
  for (std::size_t lo = 0; lo < stream.size(); lo += batch_size) {
    const std::size_t n = std::min(batch_size, stream.size() - lo);
    Stopwatch sw;
    std::uint64_t batch_hits = 0;
    std::uint64_t batch_bytes_hit = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Request& req = stream[lo + i];
      if (cache.access(req)) {
        ++batch_hits;
        batch_bytes_hit += req.size;
      }
      tally.flow.bytes_total += req.size;
    }
    const double secs = sw.seconds();
    const auto ns = static_cast<std::uint64_t>(
        std::max(0.0, std::round(secs * 1e9)));
    tally.latency_ns.add(ns, n);
    tally.flow.requests += n;
    tally.flow.hits += batch_hits;
    tally.flow.bytes_hit += batch_bytes_hit;
  }
  return tally;
}

/// Shared submit/merge shell over either worker loop.
template <typename DriveFn>
LoadGenResult run_streams(const std::vector<std::vector<Request>>& streams,
                          ThreadPool& pool, const DriveFn& drive) {
  std::vector<std::future<WorkerTally>> futures;
  futures.reserve(streams.size());
  Stopwatch wall;
  for (std::size_t w = 0; w < streams.size(); ++w) {
    const std::vector<Request>* stream = &streams[w];
    futures.push_back(pool.submit([stream, w, &drive] {
      return drive(*stream, w);
    }));
  }
  LoadGenResult result;
  for (auto& f : futures) {
    const WorkerTally tally = f.get();
    result += tally.flow;
    result.latency_ns.merge(tally.latency_ns);
  }
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace

LoadGenResult LoadGen::run(ShardedCache& cache, ThreadPool& pool) const {
  const std::size_t batch = batch_size_;
  ShardedCache* c = &cache;
  return run_streams(streams_, pool,
                     [c, batch](const std::vector<Request>& stream,
                                std::size_t w) {
                       return drive_stream(*c, stream, batch, w);
                     });
}

LoadGenResult LoadGen::run(Cache& cache, ThreadPool& pool) const {
  const std::size_t batch = batch_size_;
  Cache* c = &cache;
  return run_streams(streams_, pool,
                     [c, batch](const std::vector<Request>& stream,
                                std::size_t /*w*/) {
                       return drive_stream_generic(*c, stream, batch);
                     });
}

}  // namespace cdn::srv
