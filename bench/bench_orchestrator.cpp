// Size-aware frontier × online orchestration gate.
//
// The full CDN-T/W/A × {baseline, drift, flash, churn, sizemix, storm}
// grid (18 traces), each replayed under six fixed policies (LRU, GDSF,
// SCIP, S4LRU, TinyLFU-admitted LRU, SB-LRU), the OrchestratorCache over
// exactly that expert pool, and both offline bounds (object-Belady and the
// size-aware ByteOracle from src/analysis) — so every cell reports the
// object- AND byte-optimal frontier next to what the policies achieve.
// The scan scenario is omitted: its one-hit sweeps make the byte-optimal
// bound degenerate (everything bypasses) and it is already gated by
// bench_stress.
//
// Gates enforced before the report is written (exit 1 on violation):
//   * bitwise rerun determinism — the whole sweep runs twice and every row
//     (bounds and orchestrator included) must be deterministic_equal;
//   * epsilon dominance — in every (base, scenario) cell the orchestrator's
//     warm BYTE miss ratio must be within kEpsilon (0.01, absolute) of the
//     best fixed policy's: tracking the per-cell winner is the
//     orchestrator's entire job, so trailing it anywhere is a bug;
//   * the emitted document must pass obs::validate_bench_report.
//
// Output: BENCH_orchestrator.json under $CDN_BENCH_JSON_DIR (default "."),
// one row per (policy-or-bound, base, scenario); bound rows carry
// "bound": true. Exit codes: 0 ok, 1 gate/validation failure, 2 usage.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/byte_oracle.hpp"
#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "policies/replacement/belady.hpp"
#include "sim/sweep.hpp"
#include "trace/oracle.hpp"
#include "trace/stressors/scenarios.hpp"
#include "util/table.hpp"

namespace cdn::orch_bench {
namespace {

constexpr const char* kFixedPolicies[] = {"LRU",   "GDSF",    "SCIP",
                                          "S4LRU", "TinyLFU", "SB-LRU"};
constexpr const char* kBases[] = {"cdn-t", "cdn-w", "cdn-a"};
constexpr const char* kScenarios[] = {"baseline", "drift",   "flash",
                                      "churn",    "sizemix", "storm"};
constexpr std::size_t kFixedCount = std::size(kFixedPolicies);
/// Per-trace row order: fixed policies, then the orchestrator, then the
/// two bound rows.
constexpr std::size_t kRowsPerTrace = kFixedCount + 3;

/// Caches are sized to the paper's Fig. 8 medium point (11.7% of each
/// trace's working set), as in bench_stress.
using bench::kFig8MediumFrac;

/// Largest allowed gap between the orchestrator's warm byte miss ratio and
/// the best fixed policy's, in any cell.
constexpr double kEpsilon = 0.01;

/// Full runs use ~250k requests per cell; --smoke ~50k, with the full gate
/// set.
constexpr bench::BenchCli kCli{"bench_orchestrator",
                               bench::kScaleFlag | bench::kThreadsFlag,
                               {.scale = 0.25, .threads = 8},
                               {.scale = 0.05, .threads = 8}};

int run(const bench::BenchArgs& args) {
  obs::BenchReport report("orchestrator");

  // --- Build every (base, scenario) trace up front, annotated for the
  // oracle bound rows (annotation must follow the last stressor rewrite;
  // none of the online policies read Request::next).
  std::vector<Trace> traces;
  std::vector<std::uint64_t> capacities;
  std::vector<std::string> cell_names;
  traces.reserve(std::size(kBases) * std::size(kScenarios));
  for (const char* base : kBases) {
    for (const char* scenario : kScenarios) {
      stress::StressScenario sc =
          stress::make_stress_scenario(scenario, args.scale, base);
      Trace t = stress::make_stressed_trace(sc);
      t.name = std::string(base) + "/" + scenario;
      annotate_next_access(t);
      cell_names.push_back(t.name);
      capacities.push_back(bench::cap_frac(t, kFig8MediumFrac));
      traces.push_back(std::move(t));
    }
  }

  SimOptions opts;
  opts.window = 10'000;
  // Warm fraction 0.5, not bench_stress's 0.2: the orchestrator is an
  // ONLINE learner, and on these half-length smoke traces the first 50%
  // contains its entire first observation of each scenario's regime
  // structure (shadow warm-up, the first scored windows, and — on
  // scenarios whose regime shifts mid-trace — the first switch plus
  // hand-off). Scoring that learning transient against fixed policies that
  // have nothing to learn would gate the bench on cold-start cost rather
  // than steady-state tracking, which is the property the epsilon gate is
  // about. Applied identically to every row (fixed policies and bounds
  // included), so no row gains an accounting advantage.
  opts.warmup_frac = 0.5;

  std::vector<SweepJob> jobs;
  for (std::size_t s = 0; s < traces.size(); ++s) {
    const std::uint64_t cap = capacities[s];
    for (const char* policy : kFixedPolicies) {
      jobs.push_back(SweepJob{
          [policy, cap] { return make_cache(policy, cap); }, &traces[s],
          opts});
    }
    jobs.push_back(SweepJob{
        [cap] { return make_cache("Orchestrator", cap); }, &traces[s], opts});
    jobs.push_back(SweepJob{
        [cap]() -> CachePtr { return std::make_unique<BeladyCache>(cap); },
        &traces[s], opts});
    jobs.push_back(SweepJob{
        [cap]() -> CachePtr {
          return std::make_unique<analysis::ByteOracleCache>(cap);
        },
        &traces[s], opts});
  }

  std::printf("sweeping %zu rows x %zu cells (%zu jobs, scale %.3g, "
              "%zu threads)...\n",
              kRowsPerTrace, traces.size(), jobs.size(), args.scale,
              args.threads);
  std::fflush(stdout);

  const auto results = bench::rerun_deterministic(
      [&] { return run_sweep(jobs, args.threads); }, bench::describe_job);
  if (!results) return 1;

  const auto result_at = [&](std::size_t cell,
                             std::size_t row) -> const SimResult& {
    return (*results)[cell * kRowsPerTrace + row];
  };

  // --- Per-base tables of warm byte miss ratios. ------------------------
  for (std::size_t b = 0; b < std::size(kBases); ++b) {
    std::vector<std::string> header = {"policy"};
    for (const char* scenario : kScenarios) header.emplace_back(scenario);
    Table table(header);
    for (std::size_t r = 0; r < kRowsPerTrace; ++r) {
      const std::size_t cell0 = b * std::size(kScenarios);
      std::vector<std::string> row = {result_at(cell0, r).policy};
      for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
        row.push_back(
            Table::pct(result_at(cell0 + s, r).warm_byte_miss_ratio()));
      }
      table.add_row(row);
    }
    std::printf("\n== %s: warm byte miss ratio (cap %.1f%% WSS) ==\n%s",
                kBases[b], 100.0 * kFig8MediumFrac, table.str().c_str());
  }

  // --- Report rows. -----------------------------------------------------
  for (std::size_t c = 0; c < traces.size(); ++c) {
    for (std::size_t r = 0; r < kRowsPerTrace; ++r) {
      const SimResult& res = result_at(c, r);
      obs::json::Value row = sim_result_row(res);
      row.set("base", std::string(kBases[c / std::size(kScenarios)]));
      row.set("scenario", std::string(kScenarios[c % std::size(kScenarios)]));
      row.set("capacity_bytes", capacities[c]);
      row.set("capacity_frac", kFig8MediumFrac);
      row.set("scale", args.scale);
      row.set("bound", res.policy == "Belady" || res.policy == "ByteOracle");
      report.add_row(std::move(row));
    }
  }

  // --- Epsilon-dominance gate. ------------------------------------------
  bool eps_ok = true;
  for (std::size_t c = 0; c < traces.size(); ++c) {
    double best_fixed = 1.0;
    std::size_t best_idx = 0;
    for (std::size_t p = 0; p < kFixedCount; ++p) {
      const double m = result_at(c, p).warm_byte_miss_ratio();
      if (m < best_fixed) {
        best_fixed = m;
        best_idx = p;
      }
    }
    const double orch = result_at(c, kFixedCount).warm_byte_miss_ratio();
    if (orch > best_fixed + kEpsilon) {
      std::fprintf(stderr,
                   "FAIL: orchestrator warm byte miss %.4f exceeds best "
                   "fixed policy %s (%.4f) by more than epsilon %.4f on "
                   "'%s'\n",
                   orch, kFixedPolicies[best_idx], best_fixed, kEpsilon,
                   cell_names[c].c_str());
      eps_ok = false;
    }
  }
  if (!eps_ok) return 1;
  return bench::write_report(report);
}

}  // namespace
}  // namespace cdn::orch_bench

int main(int argc, char** argv) {
  const auto args = cdn::bench::parse_args(cdn::orch_bench::kCli, argc, argv);
  return args ? cdn::orch_bench::run(*args) : cdn::bench::kUsageExit;
}
