#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cluster/cluster_cache.hpp"
#include "core/orchestrator.hpp"
#include "core/registry.hpp"
#include "core/scip_cache.hpp"
#include "layers.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/columns.hpp"
#include "trace/generator.hpp"
#include "trace/stressors/scenarios.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Cache size as a share of the trace's working set: the paper's "128 GB of
// CDN-T" point (Fig. 8), the operating point bench_stress and
// bench_cluster also use.
constexpr double kCapacityFrac = 0.117;
// Closed-loop clients on serve-cluster: the host's core count, and never
// more than it (more clients would measure the OS scheduler).
constexpr std::size_t kClients = 4;
constexpr std::size_t kNodes = 4;
// Hot-key detector operating point of bench_cluster: classifies the flash
// crowds and nothing else.
constexpr std::uint32_t kHotThreshold = 32;
constexpr std::uint64_t kHotWindow = 4096;
// Policy seed (make_cache's default). The workload seed shapes only the
// generated inputs.
constexpr std::uint64_t kPolicySeed = 1;
constexpr int kSetupRepeats = 7;
constexpr std::size_t kPrefetchDistance = 8;  // simulate()'s lookahead
constexpr std::uint64_t kMetadataEvery = 16384;
constexpr double kWarmupFrac = 0.2;  // SimResult's warm-up split
// orchestrate-drift replays the drift scenario at a quarter of its full
// size (250k requests; the scenario keeps its five phases at any scale), so
// that a pass lasts a fraction of a second and a run holds over a hundred.
constexpr double kDriftScale = 0.25;
// Throughput passes replay the trace in slices of this many requests, each
// timed on its own (a multiple of SimOptions' metadata sampling stride, so
// the slices sample metadata as often as one whole replay does).
constexpr std::size_t kChunkRequests = 20000;

enum class Kind { kReplay, kCluster, kOrchestrate };

Kind kind_of(const std::string& w) {
  if (w == "replay-cdnt" || w == "replay-cdnw") return Kind::kReplay;
  if (w == "serve-cluster") return Kind::kCluster;
  if (w == "orchestrate-drift") return Kind::kOrchestrate;
  throw std::invalid_argument("unknown workload: " + w);
}

// ---------------------------------------------------------------- inputs

cdn::Trace generate(const std::string& w, std::uint64_t seed) {
  if (w == "replay-cdnt" || w == "replay-cdnw") {
    cdn::WorkloadSpec spec =
        w == "replay-cdnt" ? cdn::cdn_t_like(1.0) : cdn::cdn_w_like(1.0);
    spec.seed = seed;
    return cdn::generate_trace(spec);
  }
  cdn::stress::StressScenario sc = w == "serve-cluster"
      ? cdn::stress::make_stress_scenario("flash", 1.0)
      : cdn::stress::make_stress_scenario("drift", kDriftScale);
  sc.base.seed = seed;
  sc.seed = cdn::hash64(sc.seed ^ seed);
  return cdn::stress::make_stressed_trace(sc);
}

cdn::cluster::ClusterCacheConfig cluster_config(std::uint64_t capacity) {
  cdn::cluster::ClusterCacheConfig cfg;
  cfg.policy = "SCIP";
  cfg.capacity_bytes = capacity;
  cfg.nodes = kNodes;
  cfg.replicas = 2;
  cfg.replicate_hot = true;
  cfg.hot_threshold = kHotThreshold;
  cfg.hot_window = kHotWindow;
  cfg.seed = kPolicySeed;
  cfg.backing = "origin";
  return cfg;
}

/// The cache under test, undecorated.
cdn::CachePtr make_subject(Kind k, std::uint64_t capacity) {
  switch (k) {
    case Kind::kReplay: return cdn::make_cache("SCIP", capacity, kPolicySeed);
    case Kind::kCluster:
      return std::make_unique<cdn::cluster::ClusterCache>(
          cluster_config(capacity));
    case Kind::kOrchestrate:
      return std::make_unique<cdn::OrchestratorCache>(capacity);
  }
  throw std::logic_error("bad kind");
}

struct Inputs {
  cdn::TraceColumns cols;
  std::uint64_t capacity = 0;
};

struct SetupTimes {
  std::vector<double> total_s, generate_s, columns_s;
};

/// Sets the workload up kSetupRepeats times (the first repeats also warm
/// the allocator and page cache for the last); keeps the last inputs.
Inputs set_up(const std::string& w, Kind k, std::uint64_t seed,
              SetupTimes& times) {
  Inputs in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const cdn::Stopwatch total;
    cdn::Stopwatch sw;
    const cdn::Trace trace = generate(w, seed);
    times.generate_s.push_back(sw.seconds());
    const auto capacity = static_cast<std::uint64_t>(
        kCapacityFrac * static_cast<double>(trace.working_set_bytes()));
    sw.reset();
    cdn::TraceColumns cols = cdn::to_columns(trace, false, false);
    times.columns_s.push_back(sw.seconds());
    const cdn::CachePtr cache = make_subject(k, capacity);
    times.total_s.push_back(total.seconds());
    in.cols = std::move(cols);
    in.capacity = capacity;
  }
  return in;
}

// ---------------------------------------------------------------- checks

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("# CHECK FAILED: %s\n", what.c_str());
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// SimResult's deterministic request/byte counters, tallied bench-side by
/// the timed loops so they can be compared against simulate().
struct Tally {
  std::uint64_t requests = 0, hits = 0, bytes_total = 0, bytes_hit = 0;
  std::uint64_t warm_requests = 0, warm_hits = 0, warm_bytes_total = 0,
                warm_bytes_hit = 0;

  bool operator==(const Tally&) const = default;

  static Tally of(const cdn::SimResult& r) {
    return {r.requests,      r.hits,      r.bytes_total,      r.bytes_hit,
            r.warm_requests, r.warm_hits, r.warm_bytes_total, r.warm_bytes_hit};
  }
  void add(const Tally& o) {
    requests += o.requests;
    hits += o.hits;
    bytes_total += o.bytes_total;
    bytes_hit += o.bytes_hit;
    warm_requests += o.warm_requests;
    warm_hits += o.warm_hits;
    warm_bytes_total += o.warm_bytes_total;
    warm_bytes_hit += o.warm_bytes_hit;
  }
  [[nodiscard]] double warm_object_miss() const {
    return 1.0 - static_cast<double>(warm_hits) /
                     static_cast<double>(warm_requests);
  }
  [[nodiscard]] double warm_byte_miss() const {
    return 1.0 - static_cast<double>(warm_bytes_hit) /
                     static_cast<double>(warm_bytes_total);
  }
};

// ------------------------------------------------------------- the loops

cdn::SimOptions sim_options() {
  cdn::SimOptions o;
  o.warmup_frac = kWarmupFrac;
  return o;
}

struct ClientRun {
  Tally tally;
  std::vector<std::uint32_t> latency_ns;  ///< one sample per request
  std::uint64_t metadata_peak = 0;
  std::uint64_t handoff_ns = 0;  ///< orchestrator switch calls
  double wall_s = 0.0;
};

/// A client's closed loop: requests first, first + stride, ... of `cols`,
/// each access() timed as the caller sees it. With `trace`, the access is
/// the root span of the request. `on_timed(ns)` runs after each request.
void drive(cdn::Cache& cache, const cdn::TraceColumns& cols,
           std::size_t first, std::size_t stride, bool sample_metadata,
           ThreadTrace* trace, ClientRun& out,
           const std::function<void(std::uint64_t)>& on_timed = {}) {
  const std::size_t n = cols.size();
  const std::size_t warm_start = cdn::warmup_request_count(kWarmupFrac, n);
  out.latency_ns.clear();
  out.latency_ns.reserve((n - first + stride - 1) / stride);
  std::uint64_t count = 0;
  const cdn::Stopwatch wall;
  for (std::size_t i = first; i < n; i += stride) {
    const std::size_t ahead = i + kPrefetchDistance * stride;
    if (ahead < n) cache.prefetch(cols.ids[ahead]);
    const cdn::Request req = cols.request_at(i);
    bool hit = false;
    std::uint64_t ns = 0;
    if (trace) {
      trace->begin_request(i, ThreadTrace::sampled(cdn::hash64(req.id)));
      const std::uint32_t parent = trace->open();
      const std::uint64_t t0 = trace->now_ns();
      hit = cache.access(req);
      const std::uint64_t t1 = trace->now_ns();
      trace->close(hit ? Layer::kAccessHit : Layer::kAccessMiss, t0, t1,
                   parent);
      ns = t1 - t0;
    } else {
      const auto t0 = Clock::now();
      hit = cache.access(req);
      const auto t1 = Clock::now();
      ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    }
    out.latency_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ns, UINT32_MAX)));
    Tally& t = out.tally;
    ++t.requests;
    t.bytes_total += req.size;
    if (hit) {
      ++t.hits;
      t.bytes_hit += req.size;
    }
    if (i >= warm_start) {
      ++t.warm_requests;
      t.warm_bytes_total += req.size;
      if (hit) {
        ++t.warm_hits;
        t.warm_bytes_hit += req.size;
      }
    }
    if (sample_metadata && ++count % kMetadataEvery == 0) {
      out.metadata_peak = std::max(out.metadata_peak, cache.metadata_bytes());
    }
    if (on_timed) on_timed(ns);
  }
  out.wall_s = wall.seconds();
  if (sample_metadata) {
    out.metadata_peak = std::max(out.metadata_peak, cache.metadata_bytes());
  }
}

struct Percentiles {
  double p50_us = 0, p99_us = 0, p999_us = 0;
  std::size_t samples = 0, beyond_p999 = 0;
};

Percentiles percentiles(std::vector<std::uint32_t>& samples) {
  std::sort(samples.begin(), samples.end());
  Percentiles p;
  p.p50_us = percentile_sorted(samples, 0.50) / 1e3;
  p.p99_us = percentile_sorted(samples, 0.99) / 1e3;
  p.p999_us = percentile_sorted(samples, 0.999) / 1e3;
  p.samples = samples.size();
  p.beyond_p999 = samples_beyond(samples.size(), 0.999);
  return p;
}

// ------------------------------------------------- single-thread passes

struct ScipCounts {
  std::uint64_t prom_demotions = 0, miss_lru_inserts = 0, overrides = 0;
  bool operator==(const ScipCounts&) const = default;
  static ScipCounts of(const cdn::ScipAdvisor& a) {
    return {a.prom_demotions(), a.miss_lru_inserts(), a.override_count()};
  }
};

struct OrchCounts {
  std::uint64_t switches = 0, scored_windows = 0;
  bool operator==(const OrchCounts&) const = default;
};

/// One untraced simulate() pass over a fresh cache under test.
struct ReplayPass {
  cdn::SimResult sim;
  ScipCounts scip;
  OrchCounts orch;
};

void read_counts(cdn::Cache& cache, ScipCounts& scip, OrchCounts& orch) {
  if (auto* a = dynamic_cast<cdn::AdvisedLruCache*>(&cache)) {
    if (auto* s = dynamic_cast<cdn::ScipAdvisor*>(&a->advisor())) {
      scip = ScipCounts::of(*s);
    } else if (auto* t = dynamic_cast<TimedAdvisor*>(&a->advisor())) {
      scip = ScipCounts::of(t->inner());
    }
  }
  if (auto* o = dynamic_cast<cdn::OrchestratorCache*>(&cache)) {
    orch = {o->switches(), o->scored_windows()};
  }
}

/// Runs a replay pass and checks it: within capacity, and (given `first`)
/// reproducing the first pass in every deterministic field and count.
ReplayPass replay_pass(Kind k, const Inputs& in, Checks& checks,
                       const ReplayPass* first) {
  const cdn::CachePtr cache = make_subject(k, in.capacity);
  ReplayPass p;
  p.sim = cdn::simulate(*cache, in.cols, sim_options());
  read_counts(*cache, p.scip, p.orch);
  checks.expect(cache->used_bytes() <= cache->capacity(),
                "replay pass: used_bytes <= capacity");
  if (first) {
    checks.expect(cdn::deterministic_equal(p.sim, first->sim) &&
                      p.scip == first->scip && p.orch == first->orch,
                  "replay pass reproduces the first pass");
  }
  return p;
}

/// One timed-loop pass (latency samples, or spans with `trace`), checked
/// against the simulate() pass `ref`: the loop drives the same requests in
/// the same order, so every counter must match.
struct LoopPass {
  ClientRun run;
  ScipCounts scip;
  OrchCounts orch;
};

LoopPass loop_pass(cdn::Cache& cache, const Inputs& in, ThreadTrace* trace,
                   const ReplayPass& ref, Checks& checks,
                   const std::string& label) {
  LoopPass p;
  auto* orch = dynamic_cast<cdn::OrchestratorCache*>(&cache);
  std::uint64_t seen_switches = orch ? orch->switches() : 0;
  std::function<void(std::uint64_t)> on_timed;
  if (orch) {
    on_timed = [&](std::uint64_t ns) {
      if (orch->switches() != seen_switches) {
        seen_switches = orch->switches();
        p.run.handoff_ns += ns;
      }
    };
  }
  drive(cache, in.cols, 0, 1, false, trace, p.run, on_timed);
  read_counts(cache, p.scip, p.orch);
  checks.expect(cache.used_bytes() <= cache.capacity(),
                label + ": used_bytes <= capacity");
  checks.expect(p.run.tally == Tally::of(ref.sim) && p.scip == ref.scip &&
                    p.orch == ref.orch,
                label + ": counters == simulate() counters");
  return p;
}

/// The trace cut into consecutive slices of kChunkRequests requests, with a
/// cut at the warm-up boundary so warm counters add up per slice.
struct Chunks {
  std::vector<cdn::TraceColumns> cols;
  std::size_t first_warm = 0;  ///< index of the first slice after warm-up
};

Chunks make_chunks(const cdn::TraceColumns& cols) {
  const std::size_t n = cols.size();
  const std::size_t warm_start = cdn::warmup_request_count(kWarmupFrac, n);
  Chunks ch;
  const auto slice = [&](std::size_t from, std::size_t to) {
    for (std::size_t b = from; b < to; b += kChunkRequests) {
      const std::size_t e = std::min(to, b + kChunkRequests);
      cdn::TraceColumns c;
      c.name = cols.name;
      c.ids.assign(cols.ids.begin() + b, cols.ids.begin() + e);
      c.sizes.assign(cols.sizes.begin() + b, cols.sizes.begin() + e);
      ch.cols.push_back(std::move(c));
    }
  };
  slice(0, warm_start);
  ch.first_warm = ch.cols.size();
  slice(warm_start, n);
  return ch;
}

/// One throughput pass: simulate() over each slice in turn on one fresh
/// cache under test, which carries its state from slice to slice, so the
/// pass serves the same requests in the same order as a whole replay.
struct ChunkedPass {
  std::vector<double> chunk_s;  ///< simulate()'s wall time per slice
  Tally tally;
  ScipCounts scip;
  OrchCounts orch;
};

/// Runs a chunked pass and checks it against the whole replay `ref`: every
/// counter must match, and the cache must stay within capacity.
ChunkedPass chunked_pass(Kind k, const Inputs& in, const Chunks& ch,
                         const ReplayPass& ref, Checks& checks) {
  const cdn::CachePtr cache = make_subject(k, in.capacity);
  cdn::SimOptions o = sim_options();
  o.warmup_frac = 0.0;  // warm counters are added up per slice below
  ChunkedPass p;
  p.chunk_s.reserve(ch.cols.size());
  for (std::size_t j = 0; j < ch.cols.size(); ++j) {
    const cdn::SimResult r = cdn::simulate(*cache, ch.cols[j], o);
    p.chunk_s.push_back(r.wall_seconds);
    Tally t{r.requests, r.hits, r.bytes_total, r.bytes_hit};
    if (j >= ch.first_warm) {
      t.warm_requests = r.requests;
      t.warm_hits = r.hits;
      t.warm_bytes_total = r.bytes_total;
      t.warm_bytes_hit = r.bytes_hit;
    }
    p.tally.add(t);
  }
  read_counts(*cache, p.scip, p.orch);
  checks.expect(cache->used_bytes() <= cache->capacity(),
                "chunked pass: used_bytes <= capacity");
  checks.expect(p.tally == Tally::of(ref.sim) && p.scip == ref.scip &&
                    p.orch == ref.orch,
                "chunked pass: counters == whole-replay counters");
  return p;
}

double ns_per_request(double wall_s, std::size_t n) {
  return wall_s * 1e9 / static_cast<double>(n);
}

// ------------------------------------------------------- cluster passes

struct ClusterPass {
  Tally tally;
  std::uint64_t client_hits = 0;
  std::vector<std::uint32_t> latency_ns;  ///< all clients, merged
  double wall_s = 0.0;
  double mean_access_ns = 0.0;  ///< over all requests of all clients
  double client_wall_ns = 0.0;  ///< mean client wall per request
  std::uint64_t metadata_peak = 0;
  cdn::cluster::ClusterTotals totals;
  std::vector<cdn::cluster::ClusterNodeStats> nodes;
  bool within_capacity = false;
  // Traced passes only.
  LayerTotals layers{};
  std::vector<std::shared_ptr<TimedAdvisor>> advisors;
};

ClusterPass cluster_pass(const Inputs& in, std::size_t clients, bool traced,
                         const std::string& spans_path) {
  ClusterPass p;
  std::unique_ptr<cdn::cluster::ClusterCache> cluster;
  if (traced) {
    p.advisors.resize(kNodes);
    cluster = std::make_unique<cdn::cluster::ClusterCache>(
        cluster_config(in.capacity),
        [&p](std::uint64_t cap, std::size_t node) -> cdn::CachePtr {
          return std::make_unique<TimedCache>(make_timed_scip_lru(
              cap, kPolicySeed + node, &p.advisors.at(node)));
        });
  } else {
    cluster = std::make_unique<cdn::cluster::ClusterCache>(
        cluster_config(in.capacity));
  }

  std::vector<ClientRun> runs(clients);
  std::vector<std::unique_ptr<ThreadTrace>> traces(clients);
  std::vector<std::exception_ptr> errors(clients);
  const auto epoch = Clock::now();
  for (std::size_t c = 0; c < clients && traced; ++c) {
    traces[c] = std::make_unique<ThreadTrace>(epoch);
  }
  const auto client = [&](std::size_t c) {
    try {
      std::optional<ThreadTrace::Scope> scope;
      if (traces[c]) scope.emplace(*traces[c]);
      drive(*cluster, in.cols, c, clients, c == 0, traces[c].get(), runs[c]);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  // Thread start-up (tens of microseconds) is inside the timed pass of
  // about a second.
  const cdn::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  try {
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  } catch (...) {
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  p.wall_s = wall.seconds();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  double client_wall_sum = 0.0;
  std::uint64_t access_ns = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    ClientRun& r = runs[c];
    p.tally.add(r.tally);
    p.client_hits += r.tally.hits;
    p.metadata_peak = std::max(p.metadata_peak, r.metadata_peak);
    client_wall_sum += r.wall_s;
    for (std::uint32_t ns : r.latency_ns) access_ns += ns;
    p.latency_ns.insert(p.latency_ns.end(), r.latency_ns.begin(),
                        r.latency_ns.end());
    if (traces[c]) {
      accumulate(p.layers, traces[c]->totals());
      if (!spans_path.empty()) {
        write_spans(spans_path, static_cast<int>(c), traces[c]->spans());
      }
    }
  }
  const auto n = static_cast<double>(in.cols.size());
  p.mean_access_ns = static_cast<double>(access_ns) / n;
  p.client_wall_ns =
      client_wall_sum * 1e9 / n;  // each client served n / clients
  p.totals = cluster->totals();
  p.nodes = cluster->node_stats();
  p.within_capacity = cluster->used_bytes() <= cluster->capacity();
  return p;
}

void check_cluster(const ClusterPass& p, std::size_t n, Checks& checks,
                   const char* label) {
  const std::string l = label;
  const cdn::cluster::ClusterTotals& t = p.totals;
  checks.expect(t.requests == n, l + ": cluster served every request");
  checks.expect(t.hits + t.peer_fills + t.origin_fetches == t.requests,
                l + ": hits + peer fills + origin fetches == requests");
  checks.expect(p.client_hits == t.hits,
                l + ": client-counted hits == ClusterTotals::hits");
  checks.expect(p.tally.bytes_total == t.bytes_total &&
                    p.tally.bytes_hit == t.bytes_hit,
                l + ": client-counted bytes == cluster bytes");
  checks.expect(p.within_capacity, l + ": used_bytes <= capacity");
}

// ------------------------------------------------------------ layer floors

/// Median ns/request of `body` over repeats of the whole column set.
double floor_ns(const Inputs& in, const std::function<std::uint64_t()>& body,
                int repeats) {
  std::vector<double> v;
  std::uint64_t sink = 0;
  for (int r = 0; r < repeats; ++r) {
    const cdn::Stopwatch sw;
    sink += body();
    v.push_back(ns_per_request(sw.seconds(), in.cols.size()));
  }
  // Keep the loops observable so they are not folded away.
  if (sink == 0x5eed) std::printf("#\n");
  return median(v);
}

double iterate_ns(const Inputs& in) {
  return floor_ns(
      in,
      [&] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < in.cols.size(); ++i) {
          acc += in.cols.ids[i] ^ in.cols.sizes[i];
        }
        return acc;
      },
      5);
}

double hash64_ns(const Inputs& in) {
  return floor_ns(
      in,
      [&] {
        std::uint64_t acc = 0;
        for (std::uint64_t id : in.cols.ids) acc += cdn::hash64(id);
        return acc;
      },
      5);
}

/// Median ns/request of simulate() with registry policy `policy`.
double policy_replay_ns(const Inputs& in, const std::string& policy,
                        int repeats) {
  std::vector<double> v;
  for (int r = 0; r < repeats; ++r) {
    const cdn::CachePtr c = cdn::make_cache(policy, in.capacity, kPolicySeed);
    const cdn::SimResult s = cdn::simulate(*c, in.cols, sim_options());
    v.push_back(ns_per_request(s.wall_seconds, in.cols.size()));
  }
  return median(v);
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              checks.failed() == 0 ? "true" : "false", checks.attempted(),
              checks.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double share(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double best_high(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

/// Elapsed-time budget: a phase runs passes until its share of the run's
/// measured seconds is spent, and always at least `min_passes`.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  [[nodiscard]] bool more(std::size_t done, std::size_t min_passes) const {
    return done < min_passes || sw_.seconds() < seconds_;
  }

 private:
  double seconds_;
  cdn::Stopwatch sw_;
};

// ---------------------------------------------------------- end to end

struct EndToEnd {
  // The reported timings.
  double throughput_rps = 0.0;
  Percentiles latency;
  // Per-pass series, printed as notes.
  std::vector<double> rps;
  std::vector<double> p50, p99, p999;
  std::vector<double> bmr, omr, obr, metadata_mib;
};

void add_latency(EndToEnd& e, std::vector<std::uint32_t>& samples) {
  const Percentiles p = percentiles(samples);
  e.p50.push_back(p.p50_us);
  e.p99.push_back(p.p99_us);
  e.p999.push_back(p.p999_us);
}

/// Single-thread workloads: one whole simulate() replay (the reference
/// every pass must reproduce, and the miss ratios), then chunked
/// throughput passes alternating with latency passes (the timed loop).
///
/// The host's speed switches between modes about 1.5x apart that last
/// seconds, as other tenants load it, and interference only ever adds
/// time. So the reported timings are lower envelopes over the run's
/// passes, which are short enough (a few tenths of a second) that a run
/// holds over a hundred: throughput is the trace length over the sum of
/// each slice's fastest time, and the latency percentiles are taken over
/// each request's fastest sample. Both converge on the cost of the code in
/// the host's fast mode, as long as the run sees that mode at all.
EndToEnd measure_single(Kind k, const Inputs& in, double seconds,
                        Checks& checks) {
  EndToEnd e;
  const Budget budget(seconds);
  const ReplayPass first = replay_pass(k, in, checks, nullptr);
  const Chunks chunks = make_chunks(in.cols);
  std::vector<double> chunk_min_s;
  std::vector<std::uint32_t> latency_min_ns;
  std::size_t tp = 0, lat = 0;
  while (budget.more(tp, 1) || lat < 1) {
    if (tp <= lat) {
      const ChunkedPass p = chunked_pass(k, in, chunks, first, checks);
      double pass_s = 0.0;
      for (double s : p.chunk_s) pass_s += s;
      e.rps.push_back(static_cast<double>(in.cols.size()) / pass_s);
      min_into(chunk_min_s, p.chunk_s);
      ++tp;
    } else {
      const cdn::CachePtr cache = make_subject(k, in.capacity);
      LoopPass p = loop_pass(*cache, in, nullptr, first, checks,
                             "latency pass");
      min_into(latency_min_ns, p.run.latency_ns);
      add_latency(e, p.run.latency_ns);
      ++lat;
    }
  }
  double envelope_s = 0.0;
  for (double s : chunk_min_s) envelope_s += s;
  e.throughput_rps = static_cast<double>(in.cols.size()) / envelope_s;
  e.latency = percentiles(latency_min_ns);
  e.bmr.push_back(first.sim.warm_byte_miss_ratio());
  e.omr.push_back(first.sim.warm_object_miss_ratio());
  // A single cache fetches every missed byte from the origin.
  e.obr.push_back(first.sim.byte_miss_ratio());
  e.metadata_mib.push_back(mib(first.sim.metadata_peak_bytes));
  return e;
}

/// serve-cluster: throughput passes of kClients closed-loop clients
/// alternate with latency passes of one client.
///
/// With 4 clients on 4 vCPUs, a client blocked on a contended mutex halts
/// its vCPU, and the latency percentiles are set by how fast the host
/// wakes it: whole runs settle in one of two modes (p50 about 1.5 us and
/// p99.9 about 60 us, or p50 about 0.8 us and p99.9 about 200 us) at the
/// same throughput. So the percentiles come from one client, whose request
/// order is fixed: the ring, hot-key, probe and lock path without waits,
/// reduced like the single-thread workloads' (each request's fastest
/// sample). Lock waits show in the 4-client throughput, and the traced run
/// reports them as cluster.wait_ns.
EndToEnd measure_cluster(const Inputs& in, double seconds, Checks& checks) {
  const std::size_t n = in.cols.size();
  EndToEnd e;
  std::vector<std::uint32_t> latency_min_ns;
  std::optional<cdn::cluster::ClusterTotals> solo;
  std::size_t tp = 0, lat = 0;
  const Budget budget(seconds);
  while (budget.more(tp, 1) || lat < 1) {
    if (tp <= lat) {
      const ClusterPass p = cluster_pass(in, kClients, false, "");
      check_cluster(p, n, checks, "serve-cluster pass");
      e.rps.push_back(static_cast<double>(n) / p.wall_s);
      e.bmr.push_back(p.tally.warm_byte_miss());
      e.omr.push_back(p.tally.warm_object_miss());
      e.obr.push_back(share(p.totals.origin_bytes, p.totals.bytes_total));
      e.metadata_mib.push_back(mib(p.metadata_peak));
      ++tp;
    } else {
      ClusterPass p = cluster_pass(in, 1, false, "");
      check_cluster(p, n, checks, "1-client latency pass");
      if (solo) {
        checks.expect(cdn::cluster::deterministic_equal(p.totals, *solo),
                      "1-client latency pass reproduces the first");
      } else {
        solo = p.totals;
      }
      min_into(latency_min_ns, p.latency_ns);
      add_latency(e, p.latency_ns);
      ++lat;
    }
  }
  // Clients interleave differently on every pass, so neither slices nor
  // requests of two throughput passes are the same work: the best whole
  // pass is reported instead (the repo's best-of-N method).
  e.throughput_rps = best_high(e.rps);
  e.latency = percentiles(latency_min_ns);
  return e;
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e,
                                       const SetupTimes& setup) {
  return {
      {"throughput_rps", e.throughput_rps, "1/s"},
      {"latency_p50_us", e.latency.p50_us, "us"},
      {"latency_p99_us", e.latency.p99_us, "us"},
      {"latency_p999_us", e.latency.p999_us, "us"},
      {"byte_miss_ratio", median(e.bmr), "ratio"},
      {"object_miss_ratio", median(e.omr), "ratio"},
      {"origin_byte_ratio", median(e.obr), "ratio"},
      {"metadata_peak_mib", median(e.metadata_mib), "MiB"},
      {"setup_s", median(setup.total_s), "s"},
  };
}

void print_series(const char* label, const std::vector<double>& v) {
  std::printf("# %s per pass:", label);
  for (double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

void print_end_to_end_notes(const EndToEnd& e) {
  print_series("throughput_rps", e.rps);
  print_series("latency_p50_us", e.p50);
  print_series("latency_p99_us", e.p99);
  print_series("latency_p999_us", e.p999);
  std::printf("# latency samples per pass: %zu (%zu beyond p99.9)\n",
              e.latency.samples, e.latency.beyond_p999);
}

// ------------------------------------------------------------ per layer

/// Traced single-thread passes: the timed loop over a decorated cache (the
/// SCIP advisor wrapped in TimedAdvisor on replay workloads).
struct TracedSingle {
  LayerTotals layers{};
  std::vector<double> rps;
  std::vector<double> handoff_ms;
  double loop_wall_s = 0.0;  ///< traced loop wall time, all passes
  ScipCounts scip;
  OrchCounts orch;
};

TracedSingle traced_single(Kind k, const Inputs& in, double seconds,
                           const ReplayPass& ref, Checks& checks,
                           const std::string& spans_path) {
  TracedSingle t;
  std::size_t passes = 0;
  const Budget budget(seconds);
  while (budget.more(passes, 1)) {
    cdn::CachePtr cache = k == Kind::kReplay
                              ? make_timed_scip_lru(in.capacity, kPolicySeed)
                              : make_subject(k, in.capacity);
    ThreadTrace trace(Clock::now());
    LoopPass p;
    {
      const ThreadTrace::Scope scope(trace);
      p = loop_pass(*cache, in, &trace, ref, checks, "traced pass");
    }
    accumulate(t.layers, trace.totals());
    t.rps.push_back(static_cast<double>(in.cols.size()) / p.run.wall_s);
    t.handoff_ms.push_back(static_cast<double>(p.run.handoff_ns) / 1e6);
    t.loop_wall_s += p.run.wall_s;
    t.scip = p.scip;
    t.orch = p.orch;
    if (passes == 0 && !spans_path.empty()) {
      write_spans(spans_path, 0, trace.spans());
    }
    ++passes;
  }
  return t;
}

const LayerTotal& at(const LayerTotals& l, Layer x) {
  return l[static_cast<std::size_t>(x)];
}

/// Per-request ns of a layer over `requests` requests.
double per_req(const LayerTotals& l, Layer x, std::uint64_t requests) {
  return static_cast<double>(at(l, x).ns) / static_cast<double>(requests);
}

double mean_call_ns(const LayerTotals& l, Layer x) {
  return at(l, x).calls ? static_cast<double>(at(l, x).ns) /
                              static_cast<double>(at(l, x).calls)
                        : 0.0;
}

struct ScipLayer {
  double on_miss = 0, on_evict = 0, on_request = 0, choose_miss = 0,
         choose_hit = 0;
  std::uint64_t evictions = 0;
  [[nodiscard]] double self() const {
    return on_miss + on_evict + on_request + choose_miss + choose_hit;
  }
};

/// SCIP hook time per request over `requests` requests in `passes` passes.
ScipLayer scip_layer(const LayerTotals& l, std::uint64_t requests,
                     std::size_t passes) {
  ScipLayer s;
  s.on_miss = per_req(l, Layer::kScipOnMiss, requests);
  s.on_evict = per_req(l, Layer::kScipOnEvict, requests);
  s.on_request = per_req(l, Layer::kScipOnRequest, requests);
  s.choose_miss = per_req(l, Layer::kScipChooseMiss, requests);
  s.choose_hit = per_req(l, Layer::kScipChooseHit, requests);
  s.evictions = at(l, Layer::kScipOnEvict).calls / passes;
  return s;
}

/// Every per-layer metric, in report order. A layer the workload's
/// requests never enter reports 0 (see README.md for which apply where).
struct PerLayer {
  double generate_s = 0, columns_s = 0;
  double iterate_ns = 0, hash64_ns = 0, lru_ns = 0;
  double hit_ns = 0, miss_ns = 0, queue_self_ns = 0;
  double evictions = 0;
  ScipLayer scip;
  ScipCounts scip_counts;
  double experts_ns = 0, orch_overhead_ns = 0, handoff_ms = 0;
  OrchCounts orch;
  double node_policy_ns = 0, route_lock_ns = 0, wait_ns = 0;
  double hot_spread_share = 0, peer_fill_share = 0, node_skew = 0;
  double origin_fetches = 0;
  double trace_overhead = 0, residual_ns = 0;

  [[nodiscard]] std::vector<Metric> metrics() const {
    return {
        {"trace.generate_s", generate_s, "s"},
        {"trace.columns_s", columns_s, "s"},
        {"sim.iterate_ns", iterate_ns, "ns"},
        {"util.hash64_ns", hash64_ns, "ns"},
        {"sim.lru_ns", lru_ns, "ns"},
        {"sim.hit_ns", hit_ns, "ns"},
        {"sim.miss_ns", miss_ns, "ns"},
        {"sim.queue_self_ns", queue_self_ns, "ns"},
        {"sim.evictions", evictions, "count"},
        {"core.scip.on_miss_ns", scip.on_miss, "ns"},
        {"core.scip.on_evict_ns", scip.on_evict, "ns"},
        {"core.scip.on_request_ns", scip.on_request, "ns"},
        {"core.scip.choose_miss_ns", scip.choose_miss, "ns"},
        {"core.scip.choose_hit_ns", scip.choose_hit, "ns"},
        {"core.scip.self_ns", scip.self(), "ns"},
        {"core.scip.prom_demotions",
         static_cast<double>(scip_counts.prom_demotions), "count"},
        {"core.scip.miss_lru_inserts",
         static_cast<double>(scip_counts.miss_lru_inserts), "count"},
        {"core.scip.overrides", static_cast<double>(scip_counts.overrides),
         "count"},
        {"core.orch.experts_ns", experts_ns, "ns"},
        {"core.orch.overhead_ns", orch_overhead_ns, "ns"},
        {"core.orch.handoff_ms", handoff_ms, "ms"},
        {"core.orch.switches", static_cast<double>(orch.switches), "count"},
        {"core.orch.scored_windows", static_cast<double>(orch.scored_windows),
         "count"},
        {"tdc.node.policy_ns", node_policy_ns, "ns"},
        {"cluster.route_lock_ns", route_lock_ns, "ns"},
        {"cluster.wait_ns", wait_ns, "ns"},
        {"cluster.hot_spread_share", hot_spread_share, "ratio"},
        {"cluster.peer_fill_share", peer_fill_share, "ratio"},
        {"cluster.node_skew", node_skew, "ratio"},
        {"cluster.origin_fetches", origin_fetches, "count"},
        {"trace_overhead", trace_overhead, "ratio"},
        {"residual_ns", residual_ns, "ns"},
    };
  }
};

void per_layer_single(Kind k, const Inputs& in, double seconds,
                      Checks& checks, const std::string& spans_path,
                      PerLayer& out) {
  const std::uint64_t n = in.cols.size();
  // Untraced reference passes: the counters every traced pass must match,
  // and the throughput trace_overhead is taken against.
  std::vector<double> rps;
  ReplayPass ref;
  const Budget budget(0.3 * seconds);
  while (budget.more(rps.size(), 1)) {
    ReplayPass p = replay_pass(k, in, checks, rps.empty() ? nullptr : &ref);
    rps.push_back(p.sim.tps());
    if (rps.size() == 1) ref = std::move(p);
  }
  const TracedSingle t =
      traced_single(k, in, 0.4 * seconds, ref, checks, spans_path);
  const std::uint64_t requests = n * t.rps.size();
  const LayerTotals& l = t.layers;

  out.hit_ns = mean_call_ns(l, Layer::kAccessHit);
  out.miss_ns = mean_call_ns(l, Layer::kAccessMiss);
  const double access_ns = (static_cast<double>(at(l, Layer::kAccessHit).ns) +
                            static_cast<double>(at(l, Layer::kAccessMiss).ns)) /
                           static_cast<double>(requests);
  if (k == Kind::kReplay) {
    out.scip = scip_layer(l, requests, t.rps.size());
    out.evictions = static_cast<double>(out.scip.evictions);
    out.scip_counts = t.scip;
    out.queue_self_ns = access_ns - out.scip.self();
  }
  out.trace_overhead = best_high(t.rps) / best_high(rps);
  // The loop's own per-request work, outside any span.
  out.residual_ns = ns_per_request(t.loop_wall_s, requests) - access_ns;

  out.iterate_ns = iterate_ns(in);
  out.hash64_ns = hash64_ns(in);
  out.lru_ns = policy_replay_ns(in, "LRU", 3);
  if (k == Kind::kOrchestrate) {
    const cdn::OrchestratorParams params;
    for (const std::string& e : params.experts) {
      out.experts_ns += policy_replay_ns(in, e, 1);
    }
    out.orch_overhead_ns = 1e9 / best_high(rps) - out.experts_ns;
    out.handoff_ms = median(t.handoff_ms);
    out.orch = t.orch;
  }
}

void per_layer_cluster(const Inputs& in, double seconds, Checks& checks,
                       const std::string& spans_path, PerLayer& out) {
  const std::size_t n = in.cols.size();
  std::vector<double> rps, traced_rps;
  {
    std::size_t passes = 0;
    const Budget budget(0.3 * seconds);
    while (budget.more(passes, 1)) {
      const ClusterPass p = cluster_pass(in, kClients, false, "");
      check_cluster(p, n, checks, "serve-cluster pass");
      rps.push_back(static_cast<double>(n) / p.wall_s);
      ++passes;
    }
  }
  LayerTotals layers{};
  ScipCounts scip_counts;
  std::vector<double> access_ns, client_wall_ns;
  std::uint64_t spread = 0, origin = 0, requests = 0;
  double skew_sum = 0.0;
  {
    std::size_t passes = 0;
    const Budget budget(0.4 * seconds);
    while (budget.more(passes, 1)) {
      ClusterPass p =
          cluster_pass(in, kClients, true, passes == 0 ? spans_path : "");
      check_cluster(p, n, checks, "traced serve-cluster pass");
      checks.expect(at(p.layers, Layer::kNodeProbe).positive ==
                        p.totals.peer_fills,
                    "successful peer probes == ClusterTotals::peer_fills");
      checks.expect(at(p.layers, Layer::kNodeAccess).calls == n,
                    "one node access per request");
      accumulate(layers, p.layers);
      traced_rps.push_back(static_cast<double>(n) / p.wall_s);
      access_ns.push_back(p.mean_access_ns);
      client_wall_ns.push_back(p.client_wall_ns);
      spread += p.totals.hot_spread_requests;
      origin += p.totals.origin_fetches;
      requests += p.totals.requests;
      std::uint64_t max_req = 0, sum_req = 0, live = 0;
      for (const auto& s : p.nodes) {
        if (!s.live) continue;
        max_req = std::max(max_req, s.shard.requests);
        sum_req += s.shard.requests;
        ++live;
      }
      skew_sum += share(max_req * live, sum_req);
      if (passes == 0) {
        for (const auto& a : p.advisors) {
          const ScipCounts c = ScipCounts::of(a->inner());
          scip_counts.prom_demotions += c.prom_demotions;
          scip_counts.miss_lru_inserts += c.miss_lru_inserts;
          scip_counts.overrides += c.overrides;
        }
      }
      ++passes;
    }
    out.origin_fetches = static_cast<double>(origin) / passes;
    out.node_skew = skew_sum / passes;
  }
  // One client: no lock waits, and a deterministic order, so the decorated
  // cluster must reproduce the registry-built one exactly.
  const ClusterPass solo = cluster_pass(in, 1, false, "");
  const ClusterPass solo_traced = cluster_pass(in, 1, true, "");
  check_cluster(solo, n, checks, "1-client pass");
  check_cluster(solo_traced, n, checks, "traced 1-client pass");
  checks.expect(cdn::cluster::deterministic_equal(solo.totals,
                                                  solo_traced.totals),
                "traced 1-client totals == untraced 1-client totals");

  out.hit_ns = mean_call_ns(layers, Layer::kAccessHit);
  out.miss_ns = mean_call_ns(layers, Layer::kAccessMiss);
  out.scip = scip_layer(layers, requests, requests / n);
  out.evictions = static_cast<double>(out.scip.evictions);
  out.scip_counts = scip_counts;
  out.node_policy_ns = per_req(layers, Layer::kNodeAccess, requests);
  out.queue_self_ns = out.node_policy_ns - out.scip.self();
  const double mean_access = median(access_ns);
  out.route_lock_ns = mean_access - out.node_policy_ns;
  out.wait_ns = mean_access - solo_traced.mean_access_ns;
  out.hot_spread_share = share(spread, requests);
  const LayerTotal& probes = at(layers, Layer::kNodeProbe);
  out.peer_fill_share = share(probes.positive, probes.calls);
  std::printf("# peer probes: %" PRIu64 " (%" PRIu64
              " found the object) over %" PRIu64 " requests\n",
              probes.calls, probes.positive, requests);
  out.trace_overhead = best_high(traced_rps) / best_high(rps);
  out.residual_ns = median(client_wall_ns) - mean_access;

  out.iterate_ns = iterate_ns(in);
  out.hash64_ns = hash64_ns(in);
  out.lru_ns = policy_replay_ns(in, "LRU", 3);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "replay-cdnt", "replay-cdnw", "serve-cluster", "orchestrate-drift"};
  return kNames;
}

int run(const Options& opt) {
  const Kind k = kind_of(opt.workload);
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("seconds must be > 0");
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    throw std::runtime_error("perfbench compares Release builds only (this "
                             "is " + build_type + ")");
  }
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d build=%s compiler=%s nproc=%u\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency());

  if (!opt.spans_path.empty()) {
    // Spans are appended per pass and thread; start from an empty file.
    std::FILE* f = std::fopen(opt.spans_path.c_str(), "w");
    if (!f || std::fclose(f) != 0) {
      throw std::runtime_error("cannot create span file " + opt.spans_path);
    }
  }
  SetupTimes setup;
  const Inputs in = set_up(opt.workload, k, opt.seed, setup);
  std::printf("# trace: %zu requests, capacity %" PRIu64 " bytes\n",
              in.cols.size(), in.capacity);

  Checks checks;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    const EndToEnd e = k == Kind::kCluster
                           ? measure_cluster(in, opt.seconds, checks)
                           : measure_single(k, in, opt.seconds, checks);
    print_end_to_end_notes(e);
    metrics = end_to_end_metrics(e, setup);
  } else {
    PerLayer pl;
    pl.generate_s = median(setup.generate_s);
    pl.columns_s = median(setup.columns_s);
    if (k == Kind::kCluster) {
      per_layer_cluster(in, opt.seconds, checks, opt.spans_path, pl);
    } else {
      per_layer_single(k, in, opt.seconds, checks, opt.spans_path, pl);
    }
    if (!opt.spans_path.empty()) {
      std::printf("# sampled spans: %s\n", opt.spans_path.c_str());
    }
    metrics = pl.metrics();
  }
  for (const Metric& m : metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# checks: %" PRIu64 " attempted, %" PRIu64 " failed\n",
              checks.attempted(), checks.failed());
  print_result(checks, metrics);
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
