// Integration tests across modules: the Fig. 12 host integrations
// (LRU-K + advisor, LRB + advisor), SCIP on generated workloads, and the
// full sweep pipeline.
#include <gtest/gtest.h>

#include "core/ascip_cache.hpp"
#include "core/registry.hpp"
#include "core/scip_engine.hpp"
#include "policies/replacement/lrb.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/generator.hpp"
#include "trace/oracle.hpp"

namespace cdn {
namespace {

TEST(Integration, LruKScipNamesAndRuns) {
  auto cache = make_cache("LRU-2-SCIP", 8ULL << 20, 1);
  EXPECT_EQ(cache->name(), "LRU-2-SCIP");
  const Trace t = generate_trace(cdn_t_like(0.02));
  const auto res = simulate(*cache, t);
  EXPECT_EQ(res.requests, t.size());
  EXPECT_LE(cache->used_bytes(), 8ULL << 20);
}

TEST(Integration, LruKAscipNamesAndRuns) {
  auto cache = make_cache("LRU-2-ASC-IP", 8ULL << 20);
  EXPECT_EQ(cache->name(), "LRU-2-ASC-IP");
  const Trace t = generate_trace(cdn_a_like(0.02));
  const auto res = simulate(*cache, t);
  EXPECT_LE(res.object_miss_ratio(), 1.0);
}

TEST(Integration, LrbScipNamesAndRuns) {
  LrbParams p;
  p.memory_window = 1 << 14;
  p.train_batch = 2048;
  ScipParams sp;
  sp.seed = 1 ^ 0x11b5;  // the registry's LRB-SCIP advisor seed
  auto cache = std::make_unique<LrbCache>(
      8ULL << 20, p, std::make_shared<ScipAdvisor>(8ULL << 20, sp));
  EXPECT_EQ(cache->name(), "LRB-SCIP");
  const Trace t = generate_trace(cdn_w_like(0.02));
  (void)simulate(*cache, t);
  EXPECT_LE(cache->used_bytes(), 8ULL << 20);
}

TEST(Integration, LrbAscipRuns) {
  LrbParams p;
  p.memory_window = 1 << 14;
  auto cache = std::make_unique<LrbCache>(
      8ULL << 20, p, std::make_shared<AscIpAdvisor>(8ULL << 20));
  EXPECT_EQ(cache->name(), "LRB-ASC-IP");
  const Trace t = generate_trace(cdn_w_like(0.01));
  (void)simulate(*cache, t);
  EXPECT_LE(cache->used_bytes(), 8ULL << 20);
}

TEST(Integration, ScipNeverCollapses) {
  // Across all three workload families SCIP must stay within 2 points of
  // LRU (robustness) — the paper's SCIP is never the worst policy.
  for (auto spec : {cdn_t_like(0.05), cdn_w_like(0.05), cdn_a_like(0.05)}) {
    const Trace t = generate_trace(spec);
    const std::uint64_t cap = t.working_set_bytes() / 17;
    auto lru = make_cache("LRU", cap);
    auto scip = make_cache("SCIP", cap);
    const auto r_lru = simulate(*lru, t);
    const auto r_scip = simulate(*scip, t);
    EXPECT_LT(r_scip.object_miss_ratio(),
              r_lru.object_miss_ratio() + 0.02)
        << spec.name;
  }
}

TEST(Integration, ScipBeatsLipEverywhere) {
  for (auto spec : {cdn_t_like(0.05), cdn_w_like(0.05), cdn_a_like(0.05)}) {
    const Trace t = generate_trace(spec);
    const std::uint64_t cap = t.working_set_bytes() / 17;
    auto lip = make_cache("LIP", cap);
    auto scip = make_cache("SCIP", cap);
    const auto r_lip = simulate(*lip, t);
    const auto r_scip = simulate(*scip, t);
    EXPECT_LT(r_scip.object_miss_ratio(), r_lip.object_miss_ratio())
        << spec.name;
  }
}

TEST(Integration, BeladyLowerBoundsTheField) {
  // Furthest-in-future eviction is the exact optimum only for unit-size
  // objects; with variable sizes a size-aware heuristic (GDSF) can beat it
  // on OBJECT miss ratio. On byte miss ratio it remains the practical
  // floor, which is what we assert for the size-unaware field.
  Trace t = generate_trace(cdn_w_like(0.05));
  annotate_next_access(t);
  const std::uint64_t cap = t.working_set_bytes() / 17;
  auto belady = make_cache("Belady", cap);
  const double floor = simulate(*belady, t).byte_miss_ratio();
  for (const char* name : {"LRU", "SCIP", "SCI", "LIP", "BIP", "S4LRU"}) {
    auto cache = make_cache(name, cap);
    EXPECT_GE(simulate(*cache, t).byte_miss_ratio(), floor - 1e-9) << name;
  }
}

TEST(Integration, FullGridSweepRuns) {
  Trace t = generate_trace(cdn_t_like(0.01));
  annotate_next_access(t);
  std::vector<SweepJob> jobs;
  for (const auto& name : insertion_policy_names()) {
    for (const std::uint64_t cap : {8ULL << 20, 16ULL << 20}) {
      jobs.push_back(SweepJob{
          [name, cap] { return make_cache(name, cap); }, &t, SimOptions{}});
    }
  }
  const auto results = run_sweep(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (const auto& r : results) {
    EXPECT_EQ(r.requests, t.size());
  }
}

}  // namespace
}  // namespace cdn
