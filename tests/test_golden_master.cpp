// Golden-master end-to-end tests: the SCIP variants (SCIP, SCI, and SCIP
// hosted by S4LRU and LRU-2), their hosts and baselines (LRU, LIP, S4LRU,
// DGIPPR, LRU-2-ASC-IP), the history-list hosts (ARC, 2Q, LeCaR, CACHEUS,
// ASC-IP), the other multi-queue hosts (SS-LRU, LIRS) and the orchestrator
// run over small fixed-seed synthetic traces, with EXACT hit/miss/byte
// counters pinned — not ratios.
// Any behavioral drift anywhere in the engine (generator, RNG, queue,
// advisor, simulator accounting) fails these loudly, which is the point:
// an intentional behavior change must re-pin the numbers in the same
// commit that explains why.
//
// The pinned values were produced by the code at the time each row was
// added; everything below is deterministic (fixed seeds, no wall-clock
// dependence). The orchestrator replays its shadow experts on threads of
// its own, but it reads them only at sync points where every shadow has
// replayed every request (core/shadow_lanes.hpp), so its counters are as
// fixed as a single-threaded policy's.
#include <gtest/gtest.h>

#include "core/orchestrator.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/stressors/scenarios.hpp"

namespace cdn {
namespace {

// A behavior-rich spec: Zipf core, one-hit wonders, pair bursts and a scan
// phase, so insertion and promotion decisions all get exercised.
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

const Trace& golden_trace() {
  static const Trace t = generate_trace(golden_spec());
  return t;
}

constexpr std::uint64_t kCapacity = 8ULL << 20;
constexpr std::uint64_t kBytesTotal = 376'486'622u;

struct Golden {
  const char* policy;
  std::uint64_t hits;
  std::uint64_t bytes_hit;
  std::uint64_t warm_hits;
  std::uint64_t warm_bytes_hit;
};

// The golden master. To re-pin after an intentional behavior change, print
// the fields of each SimResult below and update this table.
constexpr Golden kGolden[] = {
    {"SCIP", 13'721u, 138'052'766u, 11'406u, 116'858'710u},
    {"LRU", 13'826u, 138'854'928u, 11'493u, 117'571'931u},
    {"SCI", 13'731u, 138'048'342u, 11'414u, 116'852'560u},
    {"LIP", 10'570u, 110'151'082u, 9'088u, 96'472'935u},
    {"S4LRU", 13'836u, 139'649'300u, 11'848u, 121'268'020u},
    {"S4LRU-SCIP", 13'763u, 139'363'175u, 11'793u, 121'105'927u},
    {"DGIPPR", 13'859u, 139'698'296u, 11'871u, 121'317'016u},
    {"LRU-2-SCIP", 14'943u, 146'909'181u, 12'547u, 124'625'677u},
    {"LRU-2-ASC-IP", 16'531u, 118'316'675u, 14'125u, 101'644'957u},
    {"TinyLFU", 14'757u, 144'031'159u, 12'399u, 123'056'581u},
    {"ARC", 14'959u, 148'758'417u, 12'547u, 126'456'279u},
    {"2Q", 14'405u, 143'287'264u, 12'400u, 125'281'452u},
    {"LeCaR", 13'838u, 139'012'600u, 11'503u, 117'671'223u},
    {"CACHEUS", 13'883u, 139'606'686u, 11'544u, 118'244'159u},
    {"ASC-IP", 16'231u, 123'676'954u, 13'837u, 107'308'769u},
    {"SS-LRU", 14'933u, 149'509'461u, 12'547u, 127'548'406u},
    {"LIRS", 14'655u, 138'871'391u, 12'392u, 118'790'054u},
    // LRB-SCIP and LRB-ASC-IP are not pinned: at 40k requests LRB has not
    // trained yet, so their counters equal LRU's and would pin nothing new.
};

SimOptions golden_options() {
  SimOptions opts;
  opts.window = 10'000;
  opts.warmup_frac = 0.2;
  return opts;
}

TEST(GoldenMaster, TraceIsPinned) {
  const Trace& t = golden_trace();
  EXPECT_EQ(t.requests.size(), 40'000u);
  EXPECT_EQ(t.unique_objects(), 18'725u);
  EXPECT_EQ(t.working_set_bytes(), 171'576'894u);
  std::uint64_t total = 0;
  for (const auto& r : t.requests) total += r.size;
  EXPECT_EQ(total, kBytesTotal);
}

class GoldenMasterPolicy : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenMasterPolicy, ExactCountersMatch) {
  const Golden& g = GetParam();
  auto cache = make_cache(g.policy, kCapacity);
  const auto res = simulate(*cache, golden_trace(), golden_options());

  EXPECT_EQ(res.policy, g.policy);
  EXPECT_EQ(res.requests, 40'000u);
  EXPECT_EQ(res.bytes_total, kBytesTotal);
  EXPECT_EQ(res.hits, g.hits) << "object hits drifted";
  EXPECT_EQ(res.bytes_hit, g.bytes_hit) << "byte hits drifted";
  // Warm-up split: exactly floor(0.2 * 40000) requests excluded.
  EXPECT_EQ(res.warm_requests, 32'000u);
  EXPECT_EQ(res.warm_hits, g.warm_hits) << "warm object hits drifted";
  EXPECT_EQ(res.warm_bytes_hit, g.warm_bytes_hit) << "warm byte hits drifted";
  EXPECT_EQ(res.window_miss_ratios.size(), 4u);
}

TEST_P(GoldenMasterPolicy, ReRunIsBitwiseIdentical) {
  const Golden& g = GetParam();
  auto c1 = make_cache(g.policy, kCapacity);
  auto c2 = make_cache(g.policy, kCapacity);
  const auto r1 = simulate(*c1, golden_trace(), golden_options());
  const auto r2 = simulate(*c2, golden_trace(), golden_options());
  EXPECT_TRUE(deterministic_equal(r1, r2));
  EXPECT_EQ(r1.window_miss_ratios, r2.window_miss_ratios);
}

INSTANTIATE_TEST_SUITE_P(Policies, GoldenMasterPolicy,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           std::string name = info.param.policy;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------- stressed-scenario masters --
//
// Same exact-counter discipline over two nonstationary scenarios from the
// stressor layer (trace/stressors/scenarios.hpp): a flash-crowd and a
// drift workload at golden scale. Pins the whole stressor pipeline
// (generator -> chain -> canonicalization) plus the policies' behavior
// under the nonstationarity SCIP's set-dueling exists for.

const Trace& stressed_trace(const std::string& scenario) {
  static const Trace flash = stress::make_stressed_trace(
      stress::make_stress_scenario("flash", 0.04));
  static const Trace drift = stress::make_stressed_trace(
      stress::make_stress_scenario("drift", 0.04));
  return scenario == "flash" ? flash : drift;
}

struct StressedGolden {
  const char* scenario;
  const char* policy;
  std::uint64_t hits;
  std::uint64_t bytes_hit;
  std::uint64_t warm_hits;
  std::uint64_t warm_bytes_hit;
};

// To re-pin after an intentional behavior change, print the SimResult
// fields below and update (same protocol as kGolden).
constexpr StressedGolden kStressedGolden[] = {
    {"flash", "SCIP", 7'394u, 306'319'770u, 5'857u, 209'399'591u},
    {"flash", "LRU", 7'448u, 307'726'431u, 5'902u, 210'507'697u},
    {"drift", "SCIP", 3'119u, 102'627'051u, 2'624u, 86'138'152u},
    {"drift", "LRU", 3'152u, 103'233'633u, 2'645u, 86'535'091u},
    {"drift", "S4LRU", 3'342u, 105'262'211u, 2'874u, 89'831'387u},
    {"drift", "S4LRU-SCIP", 3'259u, 102'444'818u, 2'797u, 87'142'899u},
    {"drift", "DGIPPR", 3'346u, 104'952'572u, 2'878u, 89'521'748u},
    // At 8 MiB the orchestrator never switches on these traces, so this row
    // equals its initial expert's (TinyLFU, pinned next to it); the
    // switching row is OrchestratorSwitchesOnDrift below.
    {"drift", "Orchestrator", 3'410u, 111'498'875u, 2'795u, 92'561'297u},
    {"drift", "TinyLFU", 3'410u, 111'498'875u, 2'795u, 92'561'297u},
    {"flash", "TinyLFU", 7'674u, 302'859'538u, 6'003u, 202'470'614u},
    {"flash", "S4LRU", 8'226u, 324'505'573u, 6'683u, 229'214'575u},
    {"flash", "S4LRU-SCIP", 8'131u, 321'859'504u, 6'613u, 227'330'446u},
    {"flash", "DGIPPR", 8'234u, 324'681'140u, 6'691u, 229'390'142u},
    {"flash", "ARC", 8'856u, 345'945'018u, 7'051u, 242'230'940u},
    {"drift", "ARC", 3'915u, 125'869'399u, 3'260u, 106'000'616u},
    {"flash", "2Q", 7'727u, 309'025'988u, 6'154u, 213'067'145u},
    {"drift", "2Q", 3'195u, 100'088'773u, 2'699u, 84'859'408u},
    {"flash", "SS-LRU", 8'685u, 336'671'807u, 6'910u, 234'420'457u},
    {"drift", "SS-LRU", 3'652u, 112'928'767u, 2'983u, 92'942'507u},
    {"flash", "ASC-IP", 8'721u, 305'637'595u, 6'981u, 208'782'240u},
    {"drift", "ASC-IP", 4'200u, 99'482'997u, 3'590u, 83'366'424u},
};

TEST(GoldenMaster, StressedTracesArePinned) {
  const Trace& flash = stressed_trace("flash");
  EXPECT_EQ(flash.requests.size(), 40'000u);
  EXPECT_EQ(flash.unique_objects(), 23'223u);
  EXPECT_EQ(flash.working_set_bytes(), 1'142'240'092u);
  const Trace& drift = stressed_trace("drift");
  EXPECT_EQ(drift.requests.size(), 40'000u);
  EXPECT_EQ(drift.unique_objects(), 26'734u);
  EXPECT_EQ(drift.working_set_bytes(), 1'343'587'998u);
}

class StressedGoldenPolicy : public ::testing::TestWithParam<StressedGolden> {
};

TEST_P(StressedGoldenPolicy, ExactCountersMatch) {
  const StressedGolden& g = GetParam();
  auto cache = make_cache(g.policy, kCapacity);
  const auto res =
      simulate(*cache, stressed_trace(g.scenario), golden_options());
  EXPECT_EQ(res.requests, 40'000u);
  EXPECT_EQ(res.hits, g.hits) << "object hits drifted";
  EXPECT_EQ(res.bytes_hit, g.bytes_hit) << "byte hits drifted";
  EXPECT_EQ(res.warm_hits, g.warm_hits) << "warm object hits drifted";
  EXPECT_EQ(res.warm_bytes_hit, g.warm_bytes_hit) << "warm byte hits drifted";
}

TEST_P(StressedGoldenPolicy, ReRunIsBitwiseIdentical) {
  const StressedGolden& g = GetParam();
  auto c1 = make_cache(g.policy, kCapacity);
  auto c2 = make_cache(g.policy, kCapacity);
  const auto r1 = simulate(*c1, stressed_trace(g.scenario), golden_options());
  const auto r2 = simulate(*c2, stressed_trace(g.scenario), golden_options());
  EXPECT_TRUE(deterministic_equal(r1, r2));
  EXPECT_EQ(r1.window_miss_ratios, r2.window_miss_ratios);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, StressedGoldenPolicy,
                         ::testing::ValuesIn(kStressedGolden),
                         [](const auto& info) {
                           std::string name =
                               std::string(info.param.scenario) + "_" +
                               info.param.policy;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The orchestrator's shadows, window scoring, Hedge learner and warm
// hand-off, pinned where they act: at 11.7 % of the drift trace's working
// set it switches twice, so any drift in what the shadows see, in the
// window losses or in the hand-off moves these counters.
TEST(GoldenMaster, OrchestratorSwitchesOnDrift) {
  constexpr std::uint64_t kSwitchingCapacity = 157'199'795u;
  auto cache = make_cache("Orchestrator", kSwitchingCapacity);
  const auto res =
      simulate(*cache, stressed_trace("drift"), golden_options());
  EXPECT_EQ(res.hits, 6'825u) << "object hits drifted";
  EXPECT_EQ(res.bytes_hit, 270'639'242u) << "byte hits drifted";
  EXPECT_EQ(res.warm_hits, 5'749u) << "warm object hits drifted";
  EXPECT_EQ(res.warm_bytes_hit, 234'136'261u) << "warm byte hits drifted";
  const auto& orch = dynamic_cast<const OrchestratorCache&>(*cache);
  EXPECT_EQ(orch.switches(), 2u);
  EXPECT_EQ(orch.scored_windows(), 29u);
}

}  // namespace
}  // namespace cdn
