// Throughput / latency benchmark for the lock-striped SCIP cache service:
// a one-tier cluster::Topology of N salt-0 nodes, driven by srv::LoadGen.
// Not a paper figure: this measures the serving substrate —
// how request throughput scales with shard count, what sharding costs in
// hit ratio, and the service latency distribution under a closed-loop
// multi-worker load.
//
// Protocol per shard count (1, 2, 4, 8, 16) on the CDN-T-like workload:
//   replay phase     single-threaded, in trace order -> exact deterministic
//                    hit ratios + per-shard occupancy skew
//   throughput phase `--threads` closed-loop workers through a ThreadPool,
//                    best (min-wall) of `--trials` runs, the trials
//                    interleaved across shard counts -> requests/sec and
//                    per-request service-latency percentiles
//
// Checks performed before the report is written:
//   * the 1-shard replay of SCIP/LRU/SCI/LIP over the golden trace must
//     match the unsharded policies counter-for-counter (the golden-master
//     configs of test_golden_master) — sharding may cost hit ratio at
//     N > 1, but the 1-shard service must be bit-identical to a plain
//     cache, or the serving layer changed policy behavior (exit 1);
//   * requests/sec should be monotone non-decreasing from 1 to 8 shards
//     (per-request work does not grow with shard count after the
//     O(n + shards) batch grouping); an inversion is printed as a warning
//     and the rows are reported as measured;
//   * the emitted document must pass obs::validate_bench_report.
//
// Output: BENCH_throughput.json (schema "cdn-bench-report") under
// $CDN_BENCH_JSON_DIR (default "."), one row per (trace, shard count).
// Exit codes: 0 ok, 1 cross-check or validation failure, 2 usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "cluster/topology.hpp"
#include "core/registry.hpp"
#include "srv/load_gen.hpp"
#include "trace/generator.hpp"
#include "util/table.hpp"

namespace cdn::srv {
namespace {

// The golden-master workload of tests/test_golden_master.cpp: same spec,
// same capacity, same (default) policy seed, so the unsharded counters
// here are the exact numbers that suite pins.
WorkloadSpec golden_spec() {
  WorkloadSpec spec;
  spec.name = "golden";
  spec.seed = 20260806;
  spec.n_requests = 40'000;
  spec.catalog_size = 4'000;
  spec.zipf_alpha = 0.9;
  spec.p_onehit = 0.25;
  spec.p_burst = 0.08;
  spec.burst_gap_mean = 800;
  spec.mean_size = 8'000;
  spec.size_sigma = 1.2;
  spec.max_size = 1 << 20;
  spec.scan_interval = 15'000;
  spec.scan_length = 2'000;
  spec.scan_onehit = 0.9;
  return spec;
}
constexpr std::uint64_t kGoldenCapacity = 8ULL << 20;

constexpr const char* kPolicy = "SCIP";
constexpr std::size_t kShardCounts[] = {1, 2, 4, 8, 16};
/// Shard counts up to this one are expected to scale monotonically.
constexpr std::size_t kMonotoneUpTo = 8;
constexpr std::size_t kBatch = 256;  ///< requests per access_batch call

/// Threads are closed-loop workers, deliberately oversubscribed relative
/// to typical core counts: preemption of a lock holder is the contention
/// mode a single stripe suffers and sharding relieves, so oversubscribing
/// makes the scaling signal robust to how busy the host is. --smoke runs
/// ~10^5 requests per trial: long enough that a trial spans many scheduler
/// quanta and the scaling signal beats timer noise, small enough to finish
/// in seconds.
constexpr bench::BenchCli kCli{
    "bench_throughput",
    bench::kScaleFlag | bench::kThreadsFlag | bench::kTrialsFlag,
    {.scale = 0.25, .threads = 16, .trials = 5},
    {.scale = 0.12, .threads = 16, .trials = 3}};

/// The striped service: `shards` nodes of `policy` sharing `capacity`, node
/// i seeded 1 + i, so one shard is make_cache(policy, capacity) exactly.
cluster::Topology service(const std::string& policy, std::uint64_t capacity,
                          std::size_t shards) {
  return cluster::Topology(cluster::striped(
      capacity, shards, [&policy](std::uint64_t share, std::size_t i) {
        return make_cache(policy, share, 1 + i);
      }));
}

/// One shard count: its deterministic replay and best concurrent trial.
struct ShardRow {
  std::size_t shards = 0;
  SimResult replay;
  std::vector<cluster::NodeStats> shard_stats;  ///< end-of-replay snapshot
  LoadGenResult loadgen;
};

obs::json::Value sweep_row(const ShardRow& r, const bench::BenchArgs& args) {
  obs::json::Value row = sim_result_row(r.replay);
  row.set("policy", kPolicy);  // replay reports "topology(...)"; keep it flat
  row.set("service", r.replay.policy);
  row.set("shards", static_cast<std::uint64_t>(r.shards));
  row.set("workers", static_cast<std::uint64_t>(args.threads));
  row.set("trials", static_cast<std::uint64_t>(args.trials));
  row.set("rps", r.loadgen.rps());
  row.set("tps", r.loadgen.rps());  // tps == concurrent requests/sec here
  row.set("concurrent_object_hit_ratio", r.loadgen.object_hit_ratio());
  row.set("latency_p50_ns", r.loadgen.latency_p50_ns());
  row.set("latency_p99_ns", r.loadgen.latency_p99_ns());
  row.set("latency_p999_ns", r.loadgen.latency_p999_ns());
  row.set("shard_skew", cluster::occupancy_skew(r.shard_stats));
  obs::json::Array used;
  for (const cluster::NodeStats& s : r.shard_stats) {
    used.push_back(obs::json::Value(s.used_bytes));
  }
  row.set("shard_used_bytes", obs::json::Value(std::move(used)));
  return row;
}

int run(const bench::BenchArgs& args) {
  obs::BenchReport report("throughput");

  // --- Golden cross-check: 1-shard service == unsharded policy. ---------
  const Trace golden = generate_trace(golden_spec());
  SimOptions golden_opts;
  golden_opts.window = 10'000;
  golden_opts.warmup_frac = 0.2;
  bool golden_ok = true;
  Table golden_table({"policy", "unsharded hits", "1-shard hits", "match"});
  for (const char* policy : {"SCIP", "LRU", "SCI", "LIP"}) {
    auto unsharded_cache = make_cache(policy, kGoldenCapacity);
    const SimResult unsharded =
        simulate(*unsharded_cache, golden, golden_opts);

    cluster::Topology one_shard = service(policy, kGoldenCapacity, 1);
    const SimResult sharded = simulate(one_shard, golden, golden_opts);

    const bool match = bench::same_counters(sharded, unsharded);
    golden_ok = golden_ok && match;
    golden_table.add_row({policy, std::to_string(unsharded.hits),
                          std::to_string(sharded.hits),
                          match ? "yes" : "NO"});

    obs::json::Value row = sim_result_row(sharded);
    row.set("policy", policy);
    row.set("service", sharded.policy);
    row.set("shards", static_cast<std::uint64_t>(1));
    row.set("golden_match", match);
    report.add_row(std::move(row));
  }
  std::printf("\n== Golden cross-check: 1-shard service vs unsharded ==\n%s",
              golden_table.str().c_str());
  if (!golden_ok) {
    std::fprintf(stderr,
                 "FAIL: the 1-shard service diverged from the unsharded "
                 "golden-master configs\n");
    return 1;
  }

  // --- Shard-count sweep on the CDN-T-like workload. --------------------
  const Trace trace = generate_trace(cdn_t_like(args.scale));
  const std::uint64_t capacity =
      bench::cap_frac(trace, bench::kFig8MediumFrac);
  std::printf("\nsweeping %s over %zu requests (%s), %zu workers, "
              "%zu trials/shard-count...\n",
              kPolicy, trace.size(), trace.name.c_str(), args.threads,
              args.trials);
  std::fflush(stdout);

  std::vector<ShardRow> rows;
  for (const std::size_t shards : kShardCounts) {
    cluster::Topology cache = service(kPolicy, capacity, shards);
    ShardRow row;
    row.shards = shards;
    row.replay = simulate(cache, trace);
    for (std::size_t s = 0; s < shards; ++s) {
      row.shard_stats.push_back(cache.stats(0, s));
    }
    rows.push_back(std::move(row));
  }
  LoadGenOptions lg;
  lg.workers = args.threads;
  lg.batch_size = kBatch;
  const LoadGen gen(trace, lg);
  ThreadPool pool(args.threads);
  std::vector<LoadGenResult> best = bench::best_of_interleaved(
      rows.size(), args.trials, [&](std::size_t k) {
        cluster::Topology cache = service(kPolicy, capacity, rows[k].shards);
        return gen.run(cache, pool);
      });

  Table table({"shards", "rps", "p50 us", "p99 us", "p99.9 us",
               "warm obj miss", "warm byte miss", "skew"});
  for (std::size_t k = 0; k < rows.size(); ++k) {
    ShardRow& r = rows[k];
    r.loadgen = std::move(best[k]);
    table.add_row(
        {std::to_string(r.shards), Table::fmt(r.loadgen.rps(), 0),
         Table::fmt(static_cast<double>(r.loadgen.latency_p50_ns()) / 1e3, 1),
         Table::fmt(static_cast<double>(r.loadgen.latency_p99_ns()) / 1e3, 1),
         Table::fmt(static_cast<double>(r.loadgen.latency_p999_ns()) / 1e3,
                    1),
         Table::pct(r.replay.warm_object_miss_ratio()),
         Table::pct(r.replay.warm_byte_miss_ratio()),
         Table::fmt(cluster::occupancy_skew(r.shard_stats), 3)});
    report.add_row(sweep_row(r, args));
  }
  std::printf("\n== Throughput vs shard count (%s, %s) ==\n%s", kPolicy,
              trace.name.c_str(), table.str().c_str());

  for (std::size_t k = 1; k < rows.size() && rows[k].shards <= kMonotoneUpTo;
       ++k) {
    if (rows[k].loadgen.rps() < rows[k - 1].loadgen.rps()) {
      std::fprintf(stderr,
                   "warning: rps not monotone at %zu -> %zu shards "
                   "(%.0f -> %.0f)\n",
                   rows[k - 1].shards, rows[k].shards,
                   rows[k - 1].loadgen.rps(), rows[k].loadgen.rps());
    }
  }
  return bench::write_report(report);
}

}  // namespace
}  // namespace cdn::srv

int main(int argc, char** argv) {
  const auto args = cdn::bench::parse_args(cdn::srv::kCli, argc, argv);
  return args ? cdn::srv::run(*args) : cdn::bench::kUsageExit;
}
