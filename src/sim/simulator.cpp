#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/introspect.hpp"
#include "util/stopwatch.hpp"

namespace cdn {

std::size_t warmup_request_count(double warmup_frac, std::size_t n) {
  if (!(warmup_frac > 0.0) || n == 0) return 0;
  if (warmup_frac >= 1.0) return n;
  const double raw = warmup_frac * static_cast<double>(n);
  // A fraction like 0.7 is not representable in binary, so the double
  // product sits a few ulps below the intended integer (0.7 * 10 ->
  // 6.9999999999999996) and a raw floor is off by one. Nudge by a relative
  // epsilon far above ulp error and far below one request.
  const auto warm =
      static_cast<std::size_t>(std::floor(raw + raw * 1e-12 + 1e-12));
  return std::min(warm, n);
}

namespace {

// How many requests ahead the replay loop hints Cache::prefetch. Far enough
// to cover an index probe's DRAM miss at replay speed, near enough that the
// hinted line is still resident when its request arrives. Advisory only —
// the value can never change results.
constexpr std::size_t kPrefetchDistance = 8;

// Shared driver over any request source exposing `name()`, `size()`,
// `req(i)` and `id(i)`. The AoS (Trace) and SoA (TraceColumns) entry points
// below are thin adapters, so both loops stay behaviorally identical by
// construction: same Requests, same order, same windowing and sampling.
template <typename Stream>
SimResult simulate_impl(Cache& cache, const Stream& stream,
                        const SimOptions& opts) {
  SimResult res;
  res.policy = cache.name();
  res.trace = stream.name();

  const std::size_t n = stream.size();
  const std::size_t warm_start = warmup_request_count(opts.warmup_frac, n);

  const bool collect = opts.collect_policy_metrics || opts.metrics_sink;
  obs::MetricRegistry reg;
  obs::Introspectable* introspectable = nullptr;
  if (collect) {
    reg.set_label("policy", res.policy);
    reg.set_label("trace", res.trace);
    introspectable = dynamic_cast<obs::Introspectable*>(&cache);
  }
  const auto close_window = [&](std::uint64_t hits, std::size_t count) {
    res.window_miss_ratios.push_back(
        1.0 - static_cast<double>(hits) / static_cast<double>(count));
    if (collect) {
      reg.series("sim.window_miss_ratio").push(res.window_miss_ratios.back());
      reg.series("sim.window_requests").push(static_cast<double>(count));
      reg.series("sim.used_bytes")
          .push(static_cast<double>(cache.used_bytes()));
      if (introspectable) introspectable->sample_metrics(reg);
    }
  };

  std::uint64_t window_hits = 0;
  std::size_t window_count = 0;

  const double cpu0 = thread_cpu_seconds();
  Stopwatch wall;

  // detlint:hot-begin -- the replay loop: everything here runs once per
  // request and sets the throughput numbers the paper tables quote.
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      cache.prefetch(stream.id(i + kPrefetchDistance));
    }
    const auto& req = stream.req(i);
    const bool hit = cache.access(req);

    ++res.requests;
    res.bytes_total += req.size;
    if (hit) {
      ++res.hits;
      res.bytes_hit += req.size;
    }
    if (i >= warm_start) {
      ++res.warm_requests;
      res.warm_bytes_total += req.size;
      if (hit) {
        ++res.warm_hits;
        res.warm_bytes_hit += req.size;
      }
    }

    if (hit) ++window_hits;
    if (++window_count == opts.window) {
      close_window(window_hits, window_count);
      window_hits = 0;
      window_count = 0;
    }

    if (opts.metadata_sample_every != 0 &&
        i % opts.metadata_sample_every == 0) {
      res.metadata_peak_bytes =
          std::max(res.metadata_peak_bytes, cache.metadata_bytes());
    }
  }
  // detlint:hot-end
  if (window_count > 0) {
    close_window(window_hits, window_count);
  }

  res.wall_seconds = wall.seconds();
  res.cpu_seconds = thread_cpu_seconds() - cpu0;
  res.metadata_peak_bytes =
      std::max(res.metadata_peak_bytes, cache.metadata_bytes());

  if (collect) {
    reg.counter("sim.requests").raise_to(res.requests);
    reg.counter("sim.hits").raise_to(res.hits);
    reg.counter("sim.bytes_total").raise_to(res.bytes_total);
    reg.counter("sim.bytes_hit").raise_to(res.bytes_hit);
    reg.counter("sim.warm_requests").raise_to(res.warm_requests);
    reg.counter("sim.warm_hits").raise_to(res.warm_hits);
    reg.gauge("sim.metadata_peak_bytes")
        .set(static_cast<double>(res.metadata_peak_bytes));
    res.metrics_json = obs::to_json(reg);
    if (opts.metrics_sink) opts.metrics_sink->consume(reg);
  }
  return res;
}

struct AosStream {
  const Trace& trace;
  [[nodiscard]] const std::string& name() const { return trace.name; }
  [[nodiscard]] std::size_t size() const { return trace.requests.size(); }
  [[nodiscard]] const Request& req(std::size_t i) const {
    return trace.requests[i];
  }
  [[nodiscard]] std::uint64_t id(std::size_t i) const {
    return trace.requests[i].id;
  }
};

struct SoaStream {
  const TraceColumns& cols;
  // Materialization buffer: req(i) returns a reference so the AoS and SoA
  // loop bodies compile to the same access pattern; a fresh Request is
  // assembled from the columns each call.
  mutable Request scratch;
  [[nodiscard]] const std::string& name() const { return cols.name; }
  [[nodiscard]] std::size_t size() const { return cols.size(); }
  [[nodiscard]] const Request& req(std::size_t i) const {
    scratch = cols.request_at(i);
    return scratch;
  }
  [[nodiscard]] std::uint64_t id(std::size_t i) const { return cols.ids[i]; }
};

}  // namespace

SimResult simulate(Cache& cache, const Trace& trace, const SimOptions& opts) {
  return simulate_impl(cache, AosStream{trace}, opts);
}

SimResult simulate(Cache& cache, const TraceColumns& cols,
                   const SimOptions& opts) {
  return simulate_impl(cache, SoaStream{cols, Request{}}, opts);
}

obs::json::Value sim_result_row(const SimResult& r) {
  obs::json::Value row{obs::json::Object{}};
  row.set("policy", r.policy);
  row.set("trace", r.trace);
  row.set("requests", r.requests);
  row.set("hits", r.hits);
  row.set("bytes_total", r.bytes_total);
  row.set("bytes_hit", r.bytes_hit);
  row.set("tps", r.tps());
  row.set("object_miss_ratio", r.object_miss_ratio());
  row.set("byte_miss_ratio", r.byte_miss_ratio());
  row.set("warm_object_miss_ratio", r.warm_object_miss_ratio());
  row.set("warm_byte_miss_ratio", r.warm_byte_miss_ratio());
  row.set("metadata_peak_bytes", r.metadata_peak_bytes);
  row.set("wall_seconds", r.wall_seconds);
  row.set("cpu_seconds", r.cpu_seconds);
  return row;
}

bool deterministic_equal(const SimResult& a, const SimResult& b) {
  return a.policy == b.policy && a.trace == b.trace &&
         a.requests == b.requests && a.hits == b.hits &&
         a.bytes_total == b.bytes_total && a.bytes_hit == b.bytes_hit &&
         a.warm_requests == b.warm_requests && a.warm_hits == b.warm_hits &&
         a.warm_bytes_total == b.warm_bytes_total &&
         a.warm_bytes_hit == b.warm_bytes_hit &&
         a.window_miss_ratios == b.window_miss_ratios &&
         a.metrics_json == b.metrics_json &&
         a.metadata_peak_bytes == b.metadata_peak_bytes;
}

}  // namespace cdn
