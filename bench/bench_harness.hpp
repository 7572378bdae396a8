// Shared harness of every bench main: the five gated benches
// (bench_stress, bench_orchestrator, bench_cluster, bench_throughput,
// bench_hotpath) and the thirteen paper-figure mains (bench_table1_*,
// bench_fig*_*, bench_ablation_scip, bench_admission):
//
//   traces               the three annotated synthetic workloads the
//                        figure mains share, generated once per binary;
//   print_block          a titled table block, so output reads like the
//                        paper;
//   parse_args           one strict command line: --smoke picks the
//                        defaults, an explicit flag wins in either order,
//                        and any bad value is a usage error (exit 2);
//   best_of_interleaved  interleaved best-of-N timing trials, keeping each
//                        arm's min-wall result;
//   sliced_envelope_interleaved
//                        the same rounds over replays timed in slices,
//                        keeping each slice's fastest time (slice_columns
//                        and replay_sliced cut and time a replay);
//   rerun_deterministic  the bitwise rerun gate: the sweep twice, every
//                        element deterministic_equal to its rerun;
//   same_counters        counters-only SimResult equality for anchors;
//   write_report         schema validation, then BENCH_<name>.json under
//                        $CDN_BENCH_JSON_DIR (default ".").
//
// The figure mains take no arguments and gate nothing; the three that
// write a report (fig7, fig9, fig10) exit with write_report's code. Every
// bench links only the library.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/bench_report.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/oracle.hpp"
#include "trace/request.hpp"
#include "util/table.hpp"

namespace cdn::bench {

/// Exit code of a bad command line (a failed gate exits 1).
inline constexpr int kUsageExit = 2;

/// Cache size as a fraction of the trace's working set (the paper sizes
/// caches relative to the WSS; Fig. 8's 64/128/256 GB of CDN-T's 1097 GB
/// are about 5.8 / 11.7 / 23.3 %).
inline std::uint64_t cap_frac(const Trace& t, double frac) {
  return static_cast<std::uint64_t>(
      frac * static_cast<double>(t.working_set_bytes()));
}

inline constexpr double kFig8SmallFrac = 0.058;   // "64 GB"
inline constexpr double kFig8MediumFrac = 0.117;  // "128 GB"
inline constexpr double kFig8LargeFrac = 0.233;   // "256 GB"

// ------------------------------------------------------------ figures --

/// Scale of the figure mains' synthetic traces relative to the defaults
/// (~1 M requests).
inline constexpr double kTraceScale = 0.5;

/// CDN-T, CDN-W and CDN-A at kTraceScale, annotated with next accesses,
/// generated on first use and kept for the life of the binary.
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

/// Prints "== title ==" and the table, then flushes.
inline void print_block(const std::string& title, const Table& table) {
  std::printf("\n== %s ==\n%s", title.c_str(), table.str().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ CLI --

/// Value flags a bench may declare; --smoke is always accepted.
enum BenchFlag : unsigned {
  kScaleFlag = 1U << 0,    ///< --scale F    trace scale, in (0, kMaxScale]
  kThreadsFlag = 1U << 1,  ///< --threads N  worker threads
  kTrialsFlag = 1U << 2,   ///< --trials N   best-of-N timing trials
};

/// Upper bounds of the value flags. A larger count is a typo (it would ask
/// ThreadPool for that many threads), and a larger scale would generate
/// more requests than a size_t-indexed trace holds.
inline constexpr std::size_t kMaxCount = 4096;
inline constexpr double kMaxScale = 100.0;

/// The sizes of one run: the flag values, or the bench's defaults.
struct RunSize {
  double scale = 0.0;
  std::size_t threads = 1;
  std::size_t trials = 1;
};

struct BenchArgs : RunSize {
  bool smoke = false;
};

/// A bench's command line: its binary name, the BenchFlag bits it accepts,
/// and its defaults for full and --smoke runs.
struct BenchCli {
  const char* name;
  unsigned flags;
  RunSize full;
  RunSize smoke;
};

/// "usage: <name> [--smoke] [--scale F] ..." over the declared flags.
inline std::string usage_line(const BenchCli& cli) {
  std::string line = std::string("usage: ") + cli.name + " [--smoke]";
  if (cli.flags & kScaleFlag) line += " [--scale F]";
  if (cli.flags & kThreadsFlag) line += " [--threads N]";
  if (cli.flags & kTrialsFlag) line += " [--trials N]";
  return line;
}

/// Parses `argv` against `cli`. Every value must parse in full: counts are
/// decimal integers in [1, kMaxCount] (no sign), the scale a finite number
/// in (0, kMaxScale]. On an unknown or undeclared flag, a missing value or
/// a bad one, prints the reason and the usage line to `err` (when not
/// null) and returns nullopt; the caller exits kUsageExit.
inline std::optional<BenchArgs> parse_args(const BenchCli& cli, int argc,
                                           const char* const* argv,
                                           std::FILE* err = stderr) {
  const auto fail = [&](const std::string& why) -> std::optional<BenchArgs> {
    if (err) {
      std::fprintf(err, "%s: %s\n%s\n", cli.name, why.c_str(),
                   usage_line(cli).c_str());
    }
    return std::nullopt;
  };
  bool smoke = false;
  std::optional<double> scale;
  std::optional<std::size_t> threads;
  std::optional<std::size_t> trials;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    const unsigned flag = arg == "--scale"     ? kScaleFlag
                          : arg == "--threads" ? kThreadsFlag
                          : arg == "--trials"  ? kTrialsFlag
                                               : 0U;
    if ((flag & cli.flags) == 0) return fail("unknown option '" + arg + "'");
    if (i + 1 == argc) return fail("missing value for " + arg);
    const std::string_view value = argv[++i];
    const char* const end = value.data() + value.size();
    if (flag == kScaleFlag) {
      double v = 0.0;
      const auto [ptr, ec] = std::from_chars(value.data(), end, v);
      if (ec != std::errc() || ptr != end || !std::isfinite(v) || v <= 0.0 ||
          v > kMaxScale) {
        return fail("bad value '" + std::string(value) + "' for " + arg);
      }
      scale = v;
    } else {
      std::size_t v = 0;
      const auto [ptr, ec] = std::from_chars(value.data(), end, v);
      if (ec != std::errc() || ptr != end || v == 0 || v > kMaxCount) {
        return fail("bad value '" + std::string(value) + "' for " + arg);
      }
      (flag == kThreadsFlag ? threads : trials) = v;
    }
  }
  BenchArgs args;
  static_cast<RunSize&>(args) = smoke ? cli.smoke : cli.full;
  args.smoke = smoke;
  if (scale) args.scale = *scale;
  if (threads) args.threads = *threads;
  if (trials) args.trials = *trials;
  return args;
}

// ------------------------------------------------------------- trials --

/// Interleaved best-of-N: `trials` rounds, each calling run(0), run(1), ...,
/// run(arms - 1) once, keeping per arm the result with the smallest
/// `wall_seconds`. Adjacent trials of different arms see near-identical
/// machine conditions, so slow drift (CPU steal, frequency scaling) biases
/// every arm alike and ratios between the arms' minima stay meaningful;
/// contention effects are systematic and survive the min, OS jitter does
/// not.
template <typename Run>
auto best_of_interleaved(std::size_t arms, std::size_t trials, Run&& run)
    -> std::vector<std::invoke_result_t<Run&, std::size_t>> {
  std::vector<std::invoke_result_t<Run&, std::size_t>> best(arms);
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t a = 0; a < arms; ++a) {
      auto r = run(a);
      if (t == 0 || r.wall_seconds < best[a].wall_seconds) {
        best[a] = std::move(r);
      }
    }
  }
  return best;
}

/// Requests per slice of a sliced replay: long enough to time (a few ms),
/// short enough that a run holds hundreds of slices.
inline constexpr std::size_t kSliceRequests = 20'000;

/// `cols` cut into consecutive slices of `slice_requests` (the last one may
/// be shorter). Replaying the slices in order through one cache serves the
/// same requests in the same order as one whole replay.
inline std::vector<TraceColumns> slice_columns(
    const TraceColumns& cols, std::size_t slice_requests = kSliceRequests) {
  const auto part = [](const auto& v, std::size_t b, std::size_t e) {
    using V = std::decay_t<decltype(v)>;
    return v.empty() ? V{} : V(v.begin() + b, v.begin() + e);
  };
  std::vector<TraceColumns> slices;
  for (std::size_t b = 0; b < cols.size(); b += slice_requests) {
    const std::size_t e = std::min(cols.size(), b + slice_requests);
    slices.push_back(TraceColumns{cols.name, part(cols.ids, b, e),
                                  part(cols.sizes, b, e),
                                  part(cols.times, b, e),
                                  part(cols.nexts, b, e)});
  }
  return slices;
}

/// One replay of `slices` through `cache`, timed slice by slice: simulate()
/// per slice on the same cache, which carries its state across slices.
/// The summed counters equal one whole replay's.
struct SlicedReplay {
  std::vector<double> slice_seconds;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t bytes_hit = 0;
};

inline SlicedReplay replay_sliced(Cache& cache,
                                  const std::vector<TraceColumns>& slices) {
  SimOptions opts;
  opts.warmup_frac = 0.0;
  SlicedReplay out;
  out.slice_seconds.reserve(slices.size());
  for (const TraceColumns& s : slices) {
    const SimResult r = simulate(cache, s, opts);
    out.slice_seconds.push_back(r.wall_seconds);
    out.requests += r.requests;
    out.hits += r.hits;
    out.bytes_hit += r.bytes_hit;
  }
  return out;
}

/// Interleaved sliced lower envelope: best_of_interleaved's rounds, where
/// run(arm) times one whole replay slice by slice and returns the slice
/// times in slice order. Each arm keeps every slice's fastest time over
/// all rounds; its envelope is the sum of those minima (seconds, per arm).
/// Interference only ever adds time and comes in bursts shorter than a
/// whole replay, so the envelope converges on the code's cost in the
/// host's fast mode even when no single replay ran wholly in it.
template <typename Run>
std::vector<double> sliced_envelope_interleaved(std::size_t arms,
                                                std::size_t trials,
                                                Run&& run) {
  std::vector<std::vector<double>> best(arms);
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t a = 0; a < arms; ++a) {
      const std::vector<double> s = run(a);
      if (t == 0) {
        best[a] = s;
        continue;
      }
      for (std::size_t i = 0; i < s.size() && i < best[a].size(); ++i) {
        best[a][i] = std::min(best[a][i], s[i]);
      }
    }
  }
  std::vector<double> envelope(arms, 0.0);
  for (std::size_t a = 0; a < arms; ++a) {
    for (double s : best[a]) envelope[a] += s;
  }
  return envelope;
}

// -------------------------------------------------------------- gates --

/// The bitwise rerun gate: runs `sweep` twice and returns the first run
/// when every element is deterministic_equal to its rerun. Otherwise
/// prints which element diverged (`describe(i, element)` names it) and
/// returns nullopt.
template <typename Sweep, typename Describe>
auto rerun_deterministic(Sweep&& sweep, Describe&& describe)
    -> std::optional<std::invoke_result_t<Sweep&>> {
  auto first = sweep();
  const auto second = sweep();
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (i >= second.size() || !deterministic_equal(first[i], second[i])) {
      std::fprintf(stderr, "FAIL: rerun of %s is not bitwise identical\n",
                   describe(i, first[i]).c_str());
      return std::nullopt;
    }
  }
  return first;
}

/// Names a sweep job for rerun_deterministic: "job 3 (SCIP on flash)".
inline std::string describe_job(std::size_t i, const SimResult& r) {
  return "job " + std::to_string(i) + " (" + r.policy + " on " + r.trace +
         ")";
}

/// Counters-only equality, for anchors that compare two cache shapes on one
/// trace (a 1-shard service or a 1-node cluster against the bare policy):
/// request, hit and byte counters, their warm splits and the window series.
/// Labels and cost fields (policy, metadata_peak_bytes, timing) differ
/// between shapes by design and are ignored.
inline bool same_counters(const SimResult& a, const SimResult& b) {
  return a.requests == b.requests && a.hits == b.hits &&
         a.bytes_total == b.bytes_total && a.bytes_hit == b.bytes_hit &&
         a.warm_requests == b.warm_requests && a.warm_hits == b.warm_hits &&
         a.warm_bytes_total == b.warm_bytes_total &&
         a.warm_bytes_hit == b.warm_bytes_hit &&
         a.window_miss_ratios == b.window_miss_ratios;
}

// ------------------------------------------------------------- report --

/// Validates `report` against the cdn-bench-report schema, then writes
/// BENCH_<name>.json under $CDN_BENCH_JSON_DIR (default "."). Returns 0, or
/// 1 on a schema violation or a failed write after printing the reason.
inline int write_report(const obs::BenchReport& report) {
  const std::string violation = obs::validate_bench_report(report.document());
  if (!violation.empty()) {
    std::fprintf(stderr, "FAIL: %s schema: %s\n",
                 report.file_name().c_str(), violation.c_str());
    return 1;
  }
  const char* dir = std::getenv("CDN_BENCH_JSON_DIR");
  if (!report.write(dir ? dir : ".")) {
    std::fprintf(stderr, "FAIL: could not write %s\n",
                 report.file_name().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows, schema valid)\n",
              report.file_name().c_str(), report.rows());
  return 0;
}

}  // namespace cdn::bench
