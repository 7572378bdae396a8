// Tests for the gated benches' shared harness (bench/bench_harness.hpp):
// the strict command-line parser, interleaved best-of-N trials and the
// sliced lower envelope, the rerun determinism gate, counters-only
// equality and the validate-then-write report path.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "core/registry.hpp"

namespace cdn::bench {
namespace {

constexpr BenchCli kCli{"bench_test",
                        kScaleFlag | kThreadsFlag,
                        {.scale = 0.25, .threads = 8, .trials = 5},
                        {.scale = 0.05, .threads = 4, .trials = 3}};

std::optional<BenchArgs> parse(const BenchCli& cli,
                               std::initializer_list<const char*> flags) {
  std::vector<const char*> argv = {cli.name};
  argv.insert(argv.end(), flags.begin(), flags.end());
  return parse_args(cli, static_cast<int>(argv.size()), argv.data(),
                    /*err=*/nullptr);
}

std::optional<BenchArgs> parse(std::initializer_list<const char*> flags) {
  return parse(kCli, flags);
}

// ---------------------------------------------------------------- CLI --

TEST(BenchArgs, NoFlagsGiveTheFullDefaults) {
  const auto args = parse({});
  ASSERT_TRUE(args);
  EXPECT_FALSE(args->smoke);
  EXPECT_EQ(args->scale, 0.25);
  EXPECT_EQ(args->threads, 8U);
  EXPECT_EQ(args->trials, 5U);
}

TEST(BenchArgs, SmokeChoosesTheSmokeDefaults) {
  const auto args = parse({"--smoke"});
  ASSERT_TRUE(args);
  EXPECT_TRUE(args->smoke);
  EXPECT_EQ(args->scale, 0.05);
  EXPECT_EQ(args->threads, 4U);
  EXPECT_EQ(args->trials, 3U);
}

TEST(BenchArgs, ExplicitFlagWinsOverSmokeInEitherOrder) {
  for (const auto& args : {parse({"--smoke", "--scale", "0.01"}),
                           parse({"--scale", "0.01", "--smoke"})}) {
    ASSERT_TRUE(args);
    EXPECT_TRUE(args->smoke);
    EXPECT_EQ(args->scale, 0.01);
    EXPECT_EQ(args->threads, 4U);  // the smoke default still applies
  }
  for (const auto& args : {parse({"--smoke", "--threads", "2"}),
                           parse({"--threads", "2", "--smoke"})}) {
    ASSERT_TRUE(args);
    EXPECT_EQ(args->threads, 2U);
    EXPECT_EQ(args->scale, 0.05);
  }
}

TEST(BenchArgs, AcceptsWellFormedValues) {
  const auto args = parse({"--scale", "1.5e-1", "--threads", "4096"});
  ASSERT_TRUE(args);
  EXPECT_EQ(args->scale, 0.15);
  EXPECT_EQ(args->threads, kMaxCount);
}

TEST(BenchArgs, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse({"--threads", "4x"}));
  EXPECT_FALSE(parse({"--threads", "4 "}));
  EXPECT_FALSE(parse({"--threads", "4.0"}));
  EXPECT_FALSE(parse({"--scale", "0.002abc"}));
  EXPECT_FALSE(parse({"--scale", ""}));
  EXPECT_FALSE(parse({"--threads", " 4"}));
}

TEST(BenchArgs, RejectsNegativesZeroAndNonFiniteValues) {
  EXPECT_FALSE(parse({"--threads", "-1"}));
  EXPECT_FALSE(parse({"--threads", "+1"}));
  EXPECT_FALSE(parse({"--threads", "0"}));
  EXPECT_FALSE(parse({"--scale", "-0.5"}));
  EXPECT_FALSE(parse({"--scale", "0"}));
  EXPECT_FALSE(parse({"--scale", "nan"}));
  EXPECT_FALSE(parse({"--scale", "inf"}));
}

TEST(BenchArgs, RejectsOverflowAndOutOfRangeValues) {
  EXPECT_FALSE(parse({"--threads", "18446744073709551616"}));
  EXPECT_FALSE(parse({"--threads", "99999999999999999999999"}));
  EXPECT_FALSE(parse({"--threads", "4097"}));
  EXPECT_FALSE(parse({"--scale", "1e400"}));
  EXPECT_FALSE(parse({"--scale", "100.5"}));
}

TEST(BenchArgs, RejectsAMissingValue) {
  EXPECT_FALSE(parse({"--threads"}));
  EXPECT_FALSE(parse({"--smoke", "--scale"}));
}

TEST(BenchArgs, RejectsUnknownAndUndeclaredFlags) {
  EXPECT_FALSE(parse({"--bogus"}));
  EXPECT_FALSE(parse({"--workers", "4"}));
  EXPECT_FALSE(parse({"smoke"}));
  // --trials is a harness flag, but kCli does not declare it.
  EXPECT_FALSE(parse({"--trials", "3"}));
  const BenchCli with_trials{"bench_test", kTrialsFlag, {}, {}};
  const auto args = parse(with_trials, {"--trials", "3"});
  ASSERT_TRUE(args);
  EXPECT_EQ(args->trials, 3U);
  EXPECT_FALSE(parse(with_trials, {"--scale", "0.1"}));
}

TEST(BenchArgs, PrintsTheReasonAndTheDeclaredUsageLine) {
  EXPECT_EQ(usage_line(kCli),
            "usage: bench_test [--smoke] [--scale F] [--threads N]");
  std::FILE* err = std::tmpfile();
  ASSERT_NE(err, nullptr);
  const char* argv[] = {"bench_test", "--threads", "-1"};
  EXPECT_FALSE(parse_args(kCli, 3, argv, err));
  std::rewind(err);
  std::string text;
  for (int c = std::fgetc(err); c != EOF; c = std::fgetc(err)) {
    text.push_back(static_cast<char>(c));
  }
  std::fclose(err);
  EXPECT_EQ(text,
            "bench_test: bad value '-1' for --threads\n"
            "usage: bench_test [--smoke] [--scale F] [--threads N]\n");
}

// ------------------------------------------------------------- trials --

struct Timed {
  double wall_seconds = 0.0;
  std::size_t call = 0;
};

TEST(BestOfInterleaved, CallsArmsInRoundsAndKeepsEachArmsMinWall) {
  const double walls[] = {3.0, 5.0, 1.0, 6.0, 2.0, 4.0};
  std::vector<std::size_t> order;
  const std::vector<Timed> best =
      best_of_interleaved(2, 3, [&](std::size_t arm) {
        const std::size_t call = order.size();
        order.push_back(arm);
        return Timed{walls[call], call};
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 0, 1, 0, 1}));
  ASSERT_EQ(best.size(), 2U);
  EXPECT_EQ(best[0].wall_seconds, 1.0);
  EXPECT_EQ(best[0].call, 2U);
  EXPECT_EQ(best[1].wall_seconds, 4.0);
  EXPECT_EQ(best[1].call, 5U);
}

TEST(SlicedEnvelope, KeepsEachSlicesMinimumAcrossInterleavedRounds) {
  // Arm 0's slices are fastest in different rounds; the envelope sums the
  // per-slice minima, below every single round's total.
  const std::vector<std::vector<double>> rounds = {
      {3.0, 1.0}, {5.0, 5.0},  // round 0: arm 0, arm 1
      {1.0, 4.0}, {6.0, 2.0},  // round 1
  };
  std::vector<std::size_t> order;
  const std::vector<double> env =
      sliced_envelope_interleaved(2, 2, [&](std::size_t arm) {
        order.push_back(arm);
        return rounds[order.size() - 1];
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 0, 1}));
  ASSERT_EQ(env.size(), 2U);
  EXPECT_EQ(env[0], 2.0);
  EXPECT_EQ(env[1], 7.0);
}

TEST(SlicedEnvelope, SlicedReplayServesTheWholeReplaysRequests) {
  // The slices of one replay carry the cache's state across: their summed
  // counters equal one whole simulate() over the same columns.
  const Trace t = generate_trace(cdn_t_like(0.02));
  const TraceColumns cols = to_columns(t, false, false);
  const std::vector<TraceColumns> slices = slice_columns(cols, 3'000);
  ASSERT_EQ(slices.size(), (cols.size() + 2'999) / 3'000);
  EXPECT_EQ(slices.back().size(), cols.size() - 3'000 * (slices.size() - 1));
  const std::uint64_t capacity = cap_frac(t, kFig8MediumFrac);
  auto whole_cache = make_cache("SCIP", capacity);
  auto sliced_cache = make_cache("SCIP", capacity);
  const SimResult whole = simulate(*whole_cache, cols);
  const SlicedReplay sliced = replay_sliced(*sliced_cache, slices);
  EXPECT_EQ(sliced.slice_seconds.size(), slices.size());
  EXPECT_EQ(sliced.requests, whole.requests);
  EXPECT_EQ(sliced.hits, whole.hits);
  EXPECT_EQ(sliced.bytes_hit, whole.bytes_hit);
}

// -------------------------------------------------------------- gates --

SimResult sample_result() {
  SimResult r;
  r.policy = "SCIP";
  r.trace = "t";
  r.requests = 100;
  r.hits = 40;
  r.bytes_total = 1000;
  r.bytes_hit = 300;
  r.warm_requests = 80;
  r.warm_hits = 35;
  r.warm_bytes_total = 800;
  r.warm_bytes_hit = 250;
  r.window_miss_ratios = {0.7, 0.6, 0.5};
  r.metadata_peak_bytes = 4096;
  return r;
}

TEST(RerunDeterministic, PassesIdenticalRunsAndFailsOnOneWindow) {
  const auto sweep_with = [](bool perturb_rerun) {
    return [perturb_rerun, run = 0]() mutable {
      std::vector<SimResult> out = {sample_result(), sample_result()};
      out[0].wall_seconds = run;  // timing may differ between runs
      if (perturb_rerun && run == 1) out[1].window_miss_ratios[1] += 1e-9;
      ++run;
      return out;
    };
  };
  const auto describe = [](std::size_t i, const SimResult& r) {
    return std::to_string(i) + " " + r.policy;
  };
  const auto ok = rerun_deterministic(sweep_with(false), describe);
  ASSERT_TRUE(ok);
  EXPECT_EQ(ok->size(), 2U);

  std::size_t described = 99;
  const auto bad = rerun_deterministic(
      sweep_with(true), [&](std::size_t i, const SimResult& r) {
        described = i;
        return describe(i, r);
      });
  EXPECT_FALSE(bad);
  EXPECT_EQ(described, 1U);
}

TEST(SameCounters, IgnoresLabelsAndCostsButCatchesOneHit) {
  const SimResult a = sample_result();
  SimResult b = sample_result();
  b.policy = "sharded(SCIP x1)";
  b.metadata_peak_bytes = 1;
  b.wall_seconds = 9.0;
  b.cpu_seconds = 9.0;
  EXPECT_TRUE(same_counters(a, b));
  EXPECT_FALSE(deterministic_equal(a, b));

  b.hits += 1;
  EXPECT_FALSE(same_counters(a, b));
  b.hits -= 1;
  b.window_miss_ratios.back() = 0.4;
  EXPECT_FALSE(same_counters(a, b));
}

// ------------------------------------------------------------- report --

class WriteReport : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "bench_harness_test";
    std::filesystem::create_directories(dir_);
    std::filesystem::remove(dir_ + "/BENCH_harness_test.json");
  }
  void TearDown() override { unsetenv("CDN_BENCH_JSON_DIR"); }

  bool written() const {
    return std::ifstream(dir_ + "/BENCH_harness_test.json").good();
  }

  std::string dir_;
};

TEST_F(WriteReport, WritesAValidReportUnderTheConfiguredDirectory) {
  setenv("CDN_BENCH_JSON_DIR", dir_.c_str(), 1);
  obs::BenchReport report("harness_test");
  report.add_row(sim_result_row(sample_result()));
  EXPECT_EQ(write_report(report), 0);
  EXPECT_TRUE(written());
}

TEST_F(WriteReport, ReturnsOneOnASchemaInvalidReportAndWritesNothing) {
  setenv("CDN_BENCH_JSON_DIR", dir_.c_str(), 1);
  obs::BenchReport report("harness_test");
  obs::json::Value row = sim_result_row(sample_result());
  row.set("requests", "not a number");
  report.add_row(std::move(row));
  EXPECT_EQ(write_report(report), 1);
  EXPECT_FALSE(written());
}

TEST_F(WriteReport, ReturnsOneWhenTheWriteFails) {
  setenv("CDN_BENCH_JSON_DIR", (dir_ + "/no/such/dir").c_str(), 1);
  obs::BenchReport report("harness_test");
  report.add_row(sim_result_row(sample_result()));
  EXPECT_EQ(write_report(report), 1);
}

}  // namespace
}  // namespace cdn::bench
