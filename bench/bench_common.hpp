// Shared plumbing for the figure-reproduction benchmarks: cached synthetic
// traces (generated once per binary), a pretty result-row helper, and the
// report hook. The paper's cache-size grid (cap_frac and the Fig. 8
// fractions of each trace's working set) lives in bench_harness.hpp.
//
// Every binary reproduces one table/figure of the paper and prints the same
// rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "obs/bench_report.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/oracle.hpp"
#include "trace/stats.hpp"
#include "util/table.hpp"

namespace cdn::bench {

/// Scale of the synthetic traces relative to the defaults (~1 M requests).
inline constexpr double kTraceScale = 0.5;

/// The three annotated workloads, generated once and cached.
inline const std::vector<Trace>& traces() {
  static const auto* ts = [] {
    auto* v = new std::vector<Trace>;
    for (const auto& spec :
         {cdn_t_like(kTraceScale), cdn_w_like(kTraceScale),
          cdn_a_like(kTraceScale)}) {
      Trace t = generate_trace(spec);
      annotate_next_access(t);
      v->push_back(std::move(t));
    }
    return v;
  }();
  return *ts;
}

inline const Trace& trace_t() { return traces()[0]; }
inline const Trace& trace_w() { return traces()[1]; }
inline const Trace& trace_a() { return traces()[2]; }

/// Prints a titled table block so bench output reads like the paper.
inline void print_block(const std::string& title, const Table& table) {
  std::printf("\n== %s ==\n%s", title.c_str(), table.str().c_str());
  std::fflush(stdout);
}

/// Machine-readable perf-trajectory hook: every bench binary owns one
/// BenchJson, feeds it each SimResult it measures, and gets a
/// BENCH_<name>.json (schema "cdn-bench-report") validated and written at
/// scope exit through write_report (bench_harness.hpp). The destination
/// directory comes from $CDN_BENCH_JSON_DIR (default: the working
/// directory). A failed write only warns: the figure benches gate nothing.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : report_(std::move(bench_name)) {}

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void add(const SimResult& r) { report_.add_row(sim_result_row(r)); }
  void add_all(const std::vector<SimResult>& rs) {
    for (const auto& r : rs) add(r);
  }

  ~BenchJson() {
    if (report_.rows() > 0) write_report(report_, "warning");
  }

 private:
  obs::BenchReport report_;
};

}  // namespace cdn::bench
