// OrchestratorCache tests: construction contracts, the degraded mode, the
// learned-switch path on a crafted two-policy separation workload, the warm
// hand-off, determinism, the metrics surface, and metadata accounting.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/orchestrator.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

Request req(std::uint64_t id, std::uint64_t size) {
  Request r;
  r.id = id;
  r.size = size;
  return r;
}

TEST(Orchestrator, RegistryConstructsWithDefaults) {
  const CachePtr c = make_cache("Orchestrator", 64ULL << 20);
  EXPECT_EQ(c->name(), "Orchestrator");
  (void)c->access(req(1, 4096));
  EXPECT_TRUE(c->contains(1));
  EXPECT_GT(c->metadata_bytes(), 0u);
}

TEST(Orchestrator, CtorRejectsBadParams) {
  OrchestratorParams empty;
  empty.experts.clear();
  EXPECT_THROW(OrchestratorCache(64ULL << 20, empty), std::invalid_argument);

  OrchestratorParams oob;
  oob.initial = oob.experts.size();
  EXPECT_THROW(OrchestratorCache(64ULL << 20, oob), std::invalid_argument);

  OrchestratorParams self;
  self.experts = {"LRU", "Orchestrator"};
  self.initial = 0;
  EXPECT_THROW(OrchestratorCache(64ULL << 20, self), std::invalid_argument);

  OrchestratorParams neg;
  neg.slice_shift = -1;
  EXPECT_THROW(OrchestratorCache(64ULL << 20, neg), std::invalid_argument);

  OrchestratorParams wide;
  wide.slice_shift = 32;
  wide.cap_shift = 31;  // sum == 63 would shift capacity into nothing
  EXPECT_THROW(OrchestratorCache(64ULL << 20, wide), std::invalid_argument);
}

TEST(Orchestrator, SwitchNowRejectsOutOfRangeIndex) {
  OrchestratorCache orch(64ULL << 20);
  EXPECT_THROW(orch.switch_now(99), std::invalid_argument);
}

TEST(Orchestrator, ProbabilitiesStartUniformAndSumToOne) {
  OrchestratorCache orch(64ULL << 20);
  ASSERT_TRUE(orch.orchestration_enabled());
  double sum = 0.0;
  const OrchestratorParams defaults;
  for (std::size_t j = 0; j < defaults.experts.size(); ++j) {
    EXPECT_NEAR(orch.expert_probability(j),
                1.0 / static_cast<double>(defaults.experts.size()), 1e-12);
    sum += orch.expert_probability(j);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(orch.incumbent_regret(), 0.0);
}

// Below the monitor floor the whole shadow apparatus is off and the
// orchestrator IS its initial expert — bitwise, not approximately.
TEST(Orchestrator, DegradedModeMatchesInitialExpertBitwise) {
  const std::uint64_t cap = 1ULL << 20;  // < 2 MiB shadow floor
  OrchestratorCache orch(cap);
  ASSERT_FALSE(orch.orchestration_enabled());
  const OrchestratorParams defaults;
  EXPECT_EQ(orch.live_policy(), defaults.experts[defaults.initial]);

  const CachePtr fixed = make_cache(orch.live_policy(), cap);
  Rng rng(0xde60);
  for (int i = 0; i < 30'000; ++i) {
    const Request r = req(1 + rng.below(2000), 1 + rng.below(8 * 1024));
    ASSERT_EQ(orch.access(r), fixed->access(r)) << "request " << i;
    ASSERT_EQ(orch.used_bytes(), fixed->used_bytes()) << "request " << i;
  }
  EXPECT_EQ(orch.switches(), 0u);
  EXPECT_EQ(orch.scored_windows(), 0u);
}

/// Crafted separation workload: a 64-id hot set accessed in back-to-back
/// pairs (so every policy can promote on the immediate rehit), diluted by
/// ten never-reused scan objects per pair. One cycle touches 704 distinct
/// 8 KiB objects (5.5 MiB), beyond the 4 MiB cache, so plain LRU loses
/// every cross-cycle hot reuse to scan pollution, while S4LRU parks the
/// promoted hot set in its protected segments — a persistent, unambiguous
/// per-window byte-loss gap.
Trace separation_trace(int cycles) {
  Trace t;
  t.name = "lru-vs-s4lru";
  std::uint64_t scan_id = 1'000'000;
  for (int c = 0; c < cycles; ++c) {
    for (std::uint64_t h = 0; h < 64; ++h) {
      t.requests.push_back(req(1 + h, 8 * 1024));
      t.requests.push_back(req(1 + h, 8 * 1024));
      for (int s = 0; s < 10; ++s) {
        t.requests.push_back(req(scan_id++, 8 * 1024));
      }
    }
  }
  return t;
}

OrchestratorParams fast_learner() {
  OrchestratorParams p;
  p.experts = {"LRU", "S4LRU"};
  p.initial = 0;
  p.window = 256;
  p.score_warmup_windows = 2;
  p.min_dwell_windows = 2;
  p.hysteresis = 2;
  p.switch_margin = 0.3;
  return p;
}

TEST(Orchestrator, LearnsToSwitchOffALosingIncumbent) {
  const std::uint64_t cap = 4ULL << 20;
  OrchestratorCache orch(cap, fast_learner());
  ASSERT_TRUE(orch.orchestration_enabled());
  EXPECT_EQ(orch.live_policy(), "LRU");

  const Trace t = separation_trace(40);
  for (const Request& r : t.requests) (void)orch.access(r);

  EXPECT_GT(orch.scored_windows(), 0u);
  EXPECT_GE(orch.switches(), 1u);
  EXPECT_EQ(orch.live_policy(), "S4LRU");
  EXPECT_GT(orch.expert_probability(1), orch.expert_probability(0));
  EXPECT_GE(orch.incumbent_regret(), 0.0);
}

TEST(Orchestrator, SwitchHandsOffResidentsWarm) {
  OrchestratorParams p;
  p.experts = {"LRU", "S4LRU"};
  p.initial = 0;
  OrchestratorCache orch(1ULL << 20, p);  // degraded: pure hand-off test
  for (std::uint64_t id = 1; id <= 50; ++id) {
    (void)orch.access(req(id, 8 * 1024));
  }
  const std::uint64_t used_before = orch.used_bytes();
  ASSERT_EQ(used_before, 50u * 8 * 1024);

  orch.switch_now(1);
  EXPECT_EQ(orch.live_policy(), "S4LRU");
  EXPECT_EQ(orch.switches(), 1u);
  // The hand-off goes through S4LRU's NORMAL admission path, so its
  // segment-local capacities apply (each segment holds capacity/4 = 32 of
  // these objects): the transfer cannot exceed the donor's footprint, and
  // the donor's most-protected half — replayed in every geometric pass —
  // must all survive, stratified into the upper segments.
  EXPECT_LE(orch.used_bytes(), used_before);
  EXPECT_GE(orch.used_bytes(), 25u * 8 * 1024);
  for (std::uint64_t id = 26; id <= 50; ++id) {
    EXPECT_TRUE(orch.contains(id)) << id;
  }
}

TEST(Orchestrator, RerunIsDeterministic) {
  WorkloadSpec spec = cdn_w_like(0.01);
  spec.name = "orch-det";
  const Trace t = generate_trace(spec);
  const auto cap = static_cast<std::uint64_t>(
      0.117 * static_cast<double>(t.working_set_bytes()));
  SimOptions opts;
  opts.window = 2'000;
  opts.collect_policy_metrics = true;

  OrchestratorCache a(cap, fast_learner());
  OrchestratorCache b(cap, fast_learner());
  const SimResult ra = simulate(a, t, opts);
  const SimResult rb = simulate(b, t, opts);
  EXPECT_TRUE(deterministic_equal(ra, rb));
  EXPECT_EQ(ra.metrics_json, rb.metrics_json);
  EXPECT_FALSE(ra.metrics_json.empty());
}

TEST(Orchestrator, SampleMetricsExportsLearnerState) {
  OrchestratorCache orch(4ULL << 20, fast_learner());
  const Trace t = separation_trace(10);
  for (const Request& r : t.requests) (void)orch.access(r);

  obs::MetricRegistry reg;
  orch.sample_metrics(reg);
  EXPECT_EQ(reg.all_series().count("orch.p.LRU"), 1u);
  EXPECT_EQ(reg.all_series().count("orch.p.S4LRU"), 1u);
  EXPECT_EQ(reg.all_series().count("orch.live_idx"), 1u);
  EXPECT_EQ(reg.all_series().count("orch.regret"), 1u);
  EXPECT_EQ(reg.counters().at("orch.switches").value(), orch.switches());
  EXPECT_EQ(reg.counters().at("orch.scored_windows").value(),
            orch.scored_windows());
  EXPECT_EQ(reg.gauges().at("orch.enabled").value(), 1.0);
  const auto doc = obs::json::parse(obs::to_json(reg));
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(obs::validate_metrics_document(*doc).empty());
}

TEST(Orchestrator, MetadataAccountsShadowFootprints) {
  // Enabled: every shadow's index counts; the degraded cache reports only
  // its live expert.
  OrchestratorCache enabled(4ULL << 20, fast_learner());
  OrchestratorCache degraded(1ULL << 20, fast_learner());
  ASSERT_TRUE(enabled.orchestration_enabled());
  ASSERT_FALSE(degraded.orchestration_enabled());
  for (std::uint64_t id = 1; id <= 100; ++id) {
    (void)enabled.access(req(id, 8 * 1024));
    (void)degraded.access(req(id, 8 * 1024));
  }
  EXPECT_GT(enabled.metadata_bytes(), degraded.metadata_bytes());
}

TEST(Orchestrator, MetadataChargesShadowIndexesNotTheirBytes) {
  // Shadows hold no payload, so multi-MB objects must not inflate the
  // orchestrator's metadata: it is exactly the live index, each shadow's
  // index and the window accumulators, rebuilt here from stand-alone
  // experts fed the same requests (exact shadows, no switch).
  constexpr std::uint64_t kCapacity = 64ULL << 20;
  OrchestratorParams params;
  params.experts = {"LRU", "S4LRU"};
  params.initial = 0;
  params.score_warmup_windows = 1 << 30;  // the learner never scores
  OrchestratorCache orch(kCapacity, params);
  ASSERT_TRUE(orch.orchestration_enabled());
  const CachePtr live = make_cache("LRU", kCapacity);
  std::vector<CachePtr> shadows;
  for (const std::string& e : params.experts) {
    shadows.push_back(make_cache(e, kCapacity));
  }

  Rng rng(17);
  for (int i = 0; i < 4'000; ++i) {
    const Request r = req(rng.next() % 200, (1 + rng.next() % 8) << 20);
    (void)orch.access(r);
    (void)live->access(r);
    for (const CachePtr& s : shadows) (void)s->access(r);
  }
  ASSERT_EQ(orch.switches(), 0u);
  ASSERT_GT(orch.used_bytes(), kCapacity / 2);

  std::uint64_t expected = live->metadata_bytes();
  for (const CachePtr& s : shadows) expected += s->metadata_bytes();
  expected += params.experts.size() * sizeof(std::uint64_t);
  EXPECT_EQ(orch.metadata_bytes(), expected);
  EXPECT_LT(orch.metadata_bytes(), kCapacity / 1024);
}

}  // namespace
}  // namespace cdn
