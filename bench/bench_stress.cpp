// Policy × stressor robustness table.
//
// Not a paper figure: this is the standing nonstationarity gate of the
// stressor layer. Every scenario from trace/stressors/scenarios (baseline,
// drift, flash, scan, churn, sizemix, storm) is replayed under six
// policies (SCIP / SCI / LRU / LIP / GDSF / S4LRU) at a cache sized to
// 11.7% of each scenario's working set (the paper's "128 GB of CDN-T"
// fraction), through ParallelSweep.
//
// Gates enforced before the report is written (exit 1 on violation):
//   * bitwise rerun determinism — the whole sweep is run twice and every
//     row must be deterministic_equal, including the window series;
//   * SCIP robustness — under no scenario may SCIP's warm object miss
//     ratio exceed LRU's by more than kMargin (SCIP's set dueling should
//     track LRU wherever adaptation cannot win);
//   * the emitted document must pass obs::validate_bench_report.
//
// Output: BENCH_stress.json (schema "cdn-bench-report") under
// $CDN_BENCH_JSON_DIR (default "."), one row per (policy, scenario).
// Exit codes: 0 ok, 1 gate or validation failure, 2 usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "sim/sweep.hpp"
#include "trace/stressors/scenarios.hpp"
#include "util/table.hpp"

namespace cdn::stress {
namespace {

using bench::cap_frac;
using bench::kFig8MediumFrac;

constexpr const char* kPolicies[] = {"SCIP", "SCI",  "LRU",
                                     "LIP",  "GDSF", "S4LRU"};

/// Pinned SCIP-vs-LRU warm-object-miss margin. Measured worst case across
/// the scenario palette: +0.007 at smoke scale (0.05, flash) and +0.022 at
/// full scale (0.25, storm/flash — the duel pays its sampling overhead
/// while the flash redirects churn the dueling sets). The pin leaves ~1.4x
/// headroom over the worst measured gap; a real adaptivity regression
/// (e.g. the duel latching onto bimodal insertion under drift) lands well
/// past it.
constexpr double kMargin = 0.03;

/// Full runs use ~250k requests per scenario; --smoke ~50k, with the full
/// gate set.
constexpr bench::BenchCli kCli{"bench_stress",
                               bench::kScaleFlag | bench::kThreadsFlag,
                               {.scale = 0.25, .threads = 8},
                               {.scale = 0.05, .threads = 8}};

int run(const bench::BenchArgs& args) {
  obs::BenchReport report("stress");

  // --- Build every stressed scenario trace up front (stable addresses
  // for the job grid).
  const std::vector<std::string>& names = stress_scenario_names();
  std::vector<Trace> traces;
  std::vector<std::uint64_t> capacities;
  traces.reserve(names.size());
  for (const std::string& name : names) {
    traces.push_back(make_stressed_trace(make_stress_scenario(name,
                                                              args.scale)));
    capacities.push_back(cap_frac(traces.back(), kFig8MediumFrac));
  }

  SimOptions opts;
  opts.window = 10'000;
  opts.warmup_frac = 0.2;

  std::vector<SweepJob> jobs;
  for (std::size_t s = 0; s < names.size(); ++s) {
    for (const char* policy : kPolicies) {
      const std::uint64_t cap = capacities[s];
      jobs.push_back(SweepJob{
          [policy, cap] { return make_cache(policy, cap); }, &traces[s],
          opts});
    }
  }

  std::printf("sweeping %zu policies x %zu scenarios (%zu jobs, scale %.3g, "
              "%zu threads)...\n",
              std::size(kPolicies), names.size(), jobs.size(), args.scale,
              args.threads);
  std::fflush(stdout);

  const auto results = bench::rerun_deterministic(
      [&] { return run_sweep(jobs, args.threads); }, bench::describe_job);
  if (!results) return 1;

  // --- Robustness table + report rows. ----------------------------------
  std::vector<std::string> header = {"policy"};
  for (const std::string& n : names) header.push_back(n);
  Table table(header);
  const auto result_at = [&](std::size_t scenario,
                             std::size_t policy) -> const SimResult& {
    return (*results)[scenario * std::size(kPolicies) + policy];
  };
  for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
    std::vector<std::string> row = {kPolicies[p]};
    for (std::size_t s = 0; s < names.size(); ++s) {
      row.push_back(Table::pct(result_at(s, p).warm_object_miss_ratio()));
    }
    table.add_row(row);
  }
  std::printf("\n== Warm object miss ratio by scenario (cap %.1f%% WSS) ==\n%s",
              100.0 * kFig8MediumFrac, table.str().c_str());

  for (std::size_t s = 0; s < names.size(); ++s) {
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      obs::json::Value row = sim_result_row(result_at(s, p));
      row.set("scenario", names[s]);
      row.set("capacity_bytes", capacities[s]);
      row.set("capacity_frac", kFig8MediumFrac);
      row.set("scale", args.scale);
      report.add_row(std::move(row));
    }
  }

  // --- SCIP-vs-LRU margin gate. -----------------------------------------
  bool margin_ok = true;
  for (std::size_t s = 0; s < names.size(); ++s) {
    const double scip = result_at(s, 0).warm_object_miss_ratio();
    const double lru = result_at(s, 2).warm_object_miss_ratio();
    if (scip - lru > kMargin) {
      std::fprintf(stderr,
                   "FAIL: SCIP regresses below LRU by %.4f (> margin %.4f) "
                   "under '%s' (SCIP %.4f, LRU %.4f)\n",
                   scip - lru, kMargin, names[s].c_str(), scip, lru);
      margin_ok = false;
    }
  }
  if (!margin_ok) return 1;
  return bench::write_report(report);
}

}  // namespace
}  // namespace cdn::stress

int main(int argc, char** argv) {
  const auto args = cdn::bench::parse_args(cdn::stress::kCli, argc, argv);
  return args ? cdn::stress::run(*args) : cdn::bench::kUsageExit;
}
