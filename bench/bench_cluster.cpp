// Cluster-scale sweep: byte miss ratio and back-to-origin (BTO) bandwidth
// of the consistent-hash cluster at 1/2/4/8 nodes, with and without
// cooperative hot-key replication, under three scenarios:
//
//   * baseline     — the unstressed CDN-T-like trace;
//   * flash        — the flash-crowd stressor scenario (a handful of
//                    objects absorb half the request stream for a while);
//   * flash-churn  — the flash trace plus deterministic membership churn
//                    (a node joins at 40% of the trace and node 0 leaves
//                    at 70%, exercising warm-transfer rebalancing mid-run).
//
// Spreading hot keys over k owners happens in BOTH replication arms (a
// flash crowd must be load-spread either way); the arms differ only in
// cooperative peer fill, so their hit/miss sequences are identical and the
// origin-byte comparison isolates exactly the replication effect.
//
// Gates enforced before the report is written (exit 1 on violation):
//   * bitwise rerun determinism — every configuration runs twice and must
//     be deterministic_equal in both SimResult (window series included)
//     and ClusterTotals;
//   * single-node anchor — the 1-node cluster must reproduce the bare
//     unsharded SCIP cache exactly (requests/hits/bytes/warm counters and
//     the full window-miss-ratio series) on the churn-free scenarios;
//   * replication BTO gate — under flash at >= 4 nodes, enabling peer
//     fill must strictly reduce origin bytes;
//   * the emitted document must pass obs::validate_bench_report.
//
// Output: BENCH_cluster.json (schema "cdn-bench-report") under
// $CDN_BENCH_JSON_DIR (default "."), one row per configuration.
// Exit codes: 0 ok, 1 gate or validation failure, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "cluster/cluster_cache.hpp"
#include "core/registry.hpp"
#include "trace/stressors/scenarios.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace cdn::cluster {
namespace {

constexpr const char* kPolicy = "SCIP";
constexpr std::size_t kNodeCounts[] = {1, 2, 4, 8};

/// Cache size as a fraction of each scenario's working set — the same
/// "128 GB of CDN-T" operating point bench_stress pins (11.7%), here the
/// TOTAL across all nodes, so adding nodes splits a fixed byte budget.
using bench::kFig8MediumFrac;

/// Hot-key detector operating point. At smoke scale the flash scenario's
/// crowd objects see hundreds of requests per window, so a threshold of 32
/// in a 4096-request window classifies the crowd and nothing else.
constexpr std::uint32_t kHotThreshold = 32;
constexpr std::uint64_t kHotWindow = 4096;
constexpr std::uint64_t kSeed = 1;

struct Scenario {
  std::string name;
  Trace trace;
  bool churn = false;  ///< has a membership schedule (no 1-node anchor)
};

struct RunOut {
  SimResult sim;
  ClusterTotals totals;
};

bool deterministic_equal(const RunOut& a, const RunOut& b) {
  return cdn::deterministic_equal(a.sim, b.sim) &&
         cluster::deterministic_equal(a.totals, b.totals);
}

std::vector<MembershipEvent> churn_schedule(std::size_t n_requests) {
  const auto n = static_cast<std::uint64_t>(n_requests);
  return {{n * 4 / 10, MembershipEvent::Kind::kJoin, 0},
          {n * 7 / 10, MembershipEvent::Kind::kLeave, 0}};
}

RunOut run_one(const Scenario& sc, std::uint64_t capacity, std::size_t nodes,
               bool replicate) {
  ClusterCacheConfig cfg;
  cfg.policy = kPolicy;
  cfg.capacity_bytes = capacity;
  cfg.nodes = nodes;
  cfg.replicas = 2;
  cfg.replicate_hot = replicate;
  cfg.hot_threshold = kHotThreshold;
  cfg.hot_window = kHotWindow;
  cfg.seed = kSeed;
  if (sc.churn) cfg.schedule = churn_schedule(sc.trace.requests.size());
  ClusterCache cluster(cfg);
  SimOptions opts;
  opts.window = 10'000;
  opts.warmup_frac = 0.2;
  RunOut out;
  out.sim = simulate(cluster, sc.trace, opts);
  out.totals = cluster.totals();
  return out;
}

/// Full runs use ~250k requests per scenario; --smoke ~50k, with the full
/// gate set. Threads simulate configurations concurrently.
constexpr bench::BenchCli kCli{"bench_cluster",
                               bench::kScaleFlag | bench::kThreadsFlag,
                               {.scale = 0.25, .threads = 8},
                               {.scale = 0.05, .threads = 8}};

int run(const bench::BenchArgs& args) {
  obs::BenchReport report("cluster");

  // --- Scenario traces (flash-churn replays the flash trace under a
  // membership schedule; renamed so report rows stay distinguishable).
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"baseline",
       stress::make_stressed_trace(stress::make_stress_scenario("baseline",
                                                                args.scale)),
       false});
  scenarios.push_back(
      {"flash",
       stress::make_stressed_trace(stress::make_stress_scenario("flash",
                                                                args.scale)),
       false});
  scenarios.push_back({"flash-churn", scenarios.back().trace, true});
  scenarios.back().trace.name = "flash-churn";

  std::vector<std::uint64_t> capacities;
  for (const Scenario& sc : scenarios) {
    capacities.push_back(bench::cap_frac(sc.trace, kFig8MediumFrac));
  }

  struct Config {
    std::size_t scenario;
    std::size_t nodes;
    bool replicate;
  };
  std::vector<Config> grid;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (const std::size_t nodes : kNodeCounts) {
      for (const bool replicate : {false, true}) {
        grid.push_back(Config{s, nodes, replicate});
      }
    }
  }

  std::printf("sweeping %zu scenarios x %zu node counts x 2 replication "
              "arms, twice (scale %.3g, %zu threads)...\n",
              scenarios.size(), std::size(kNodeCounts), args.scale,
              args.threads);
  std::fflush(stdout);

  const auto sweep_once = [&] {
    ThreadPool pool(args.threads);
    std::vector<std::future<RunOut>> futures;
    futures.reserve(grid.size());
    for (const Config& c : grid) {
      const Scenario* sc = &scenarios[c.scenario];
      const std::uint64_t cap = capacities[c.scenario];
      futures.push_back(pool.submit([sc, cap, c] {
        return run_one(*sc, cap, c.nodes, c.replicate);
      }));
    }
    std::vector<RunOut> outs;
    outs.reserve(futures.size());
    for (auto& f : futures) outs.push_back(f.get());
    return outs;
  };

  const auto results = bench::rerun_deterministic(
      sweep_once, [&](std::size_t i, const RunOut&) {
        return "config " + std::to_string(i) + " (" +
               scenarios[grid[i].scenario].name + ", " +
               std::to_string(grid[i].nodes) + " nodes, replication " +
               (grid[i].replicate ? "on" : "off") + ")";
      });
  if (!results) return 1;

  const auto result_at = [&](std::size_t scenario, std::size_t nodes,
                             bool replicate) -> const RunOut& {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].scenario == scenario && grid[i].nodes == nodes &&
          grid[i].replicate == replicate) {
        return (*results)[i];
      }
    }
    std::abort();  // unreachable: the grid enumerates every combination
  };

  // --- Single-node anchor: cluster(1 node) == bare SCIP, both arms. ------
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (scenarios[s].churn) continue;
    const CachePtr plain = make_cache(kPolicy, capacities[s], kSeed);
    SimOptions opts;
    opts.window = 10'000;
    opts.warmup_frac = 0.2;
    const SimResult plain_res = simulate(*plain, scenarios[s].trace, opts);
    for (const bool replicate : {false, true}) {
      const RunOut& one = result_at(s, 1, replicate);
      if (!bench::same_counters(one.sim, plain_res)) {
        std::fprintf(stderr,
                     "FAIL: 1-node cluster diverges from unsharded %s under "
                     "'%s' (replication %s)\n",
                     kPolicy, scenarios[s].name.c_str(),
                     replicate ? "on" : "off");
        return 1;
      }
    }
  }

  // --- Replication BTO gate + report rows + summary table. ----------------
  Table table({"scenario", "nodes", "byte miss", "origin GB off",
               "origin GB on", "peer fills on"});
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (const std::size_t nodes : kNodeCounts) {
      const RunOut& off = result_at(s, nodes, false);
      const RunOut& on = result_at(s, nodes, true);
      table.add_row({scenarios[s].name, std::to_string(nodes),
                     Table::pct(on.sim.byte_miss_ratio()),
                     Table::fmt(static_cast<double>(off.totals.origin_bytes) /
                                1e9),
                     Table::fmt(static_cast<double>(on.totals.origin_bytes) /
                                1e9),
                     std::to_string(on.totals.peer_fills)});
      for (const bool replicate : {false, true}) {
        const RunOut& r = result_at(s, nodes, replicate);
        obs::json::Value row = sim_result_row(r.sim);
        row.set("scenario", scenarios[s].name);
        row.set("nodes", static_cast<std::uint64_t>(nodes));
        row.set("replication", static_cast<std::uint64_t>(replicate ? 1 : 0));
        row.set("capacity_bytes", capacities[s]);
        row.set("scale", args.scale);
        row.set("origin_fetches", r.totals.origin_fetches);
        row.set("origin_bytes", r.totals.origin_bytes);
        row.set("peer_fills", r.totals.peer_fills);
        row.set("peer_fill_bytes", r.totals.peer_fill_bytes);
        row.set("hot_spread_requests", r.totals.hot_spread_requests);
        row.set("migrated_keys", r.totals.migrated_keys);
        row.set("migrated_bytes", r.totals.migrated_bytes);
        row.set("bto_bytes_per_request",
                ratio_or_zero(r.totals.origin_bytes, r.totals.requests));
        report.add_row(std::move(row));
      }
    }
  }
  std::printf("\n== Cluster sweep (%s, cap %.1f%% WSS total) ==\n%s",
              kPolicy, 100.0 * kFig8MediumFrac, table.str().c_str());

  bool bto_ok = true;
  const std::size_t flash_idx = 1;
  for (const std::size_t nodes : kNodeCounts) {
    if (nodes < 4) continue;
    const std::uint64_t off =
        result_at(flash_idx, nodes, false).totals.origin_bytes;
    const std::uint64_t on =
        result_at(flash_idx, nodes, true).totals.origin_bytes;
    if (on >= off) {
      std::fprintf(stderr,
                   "FAIL: hot-key replication does not reduce origin bytes "
                   "under flash at %zu nodes (on %llu >= off %llu)\n",
                   nodes, static_cast<unsigned long long>(on),
                   static_cast<unsigned long long>(off));
      bto_ok = false;
    }
  }
  if (!bto_ok) return 1;
  return bench::write_report(report);
}

}  // namespace
}  // namespace cdn::cluster

int main(int argc, char** argv) {
  const auto args = cdn::bench::parse_args(cdn::cluster::kCli, argc, argv);
  return args ? cdn::cluster::run(*args) : cdn::bench::kUsageExit;
}
