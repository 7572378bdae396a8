// Tests of the benchmark's own code: the percentile helper against
// hand-computed ranks, and transparency of the timing decorators — a
// decorated cache must make exactly the decisions of the bare one, pinned
// against the library's golden-master counters and the cluster's 1-node
// anchor.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster_cache.hpp"
#include "core/registry.hpp"
#include "layers.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/generator.hpp"

namespace perfbench {
namespace {

std::vector<std::uint32_t> one_to(std::uint32_t n) {
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankOnHandComputedArrays) {
  const std::vector<std::uint32_t> ten = one_to(10);
  EXPECT_EQ(percentile_sorted(ten, 0.0), 1u);
  EXPECT_EQ(percentile_sorted(ten, 0.1), 1u);   // ceil(1.0)  = rank 1
  EXPECT_EQ(percentile_sorted(ten, 0.11), 2u);  // ceil(1.1)  = rank 2
  EXPECT_EQ(percentile_sorted(ten, 0.5), 5u);   // ceil(5.0)  = rank 5
  EXPECT_EQ(percentile_sorted(ten, 0.99), 10u); // ceil(9.9)  = rank 10
  EXPECT_EQ(percentile_sorted(ten, 1.0), 10u);

  // 0.99 * 100 is 99.00000000000001 in binary: still rank 99.
  const std::vector<std::uint32_t> hundred = one_to(100);
  EXPECT_EQ(percentile_sorted(hundred, 0.99), 99u);
  EXPECT_EQ(percentile_sorted(hundred, 0.999), 100u);  // ceil(99.9)

  const std::vector<std::uint32_t> thousand = one_to(1000);
  EXPECT_EQ(percentile_sorted(thousand, 0.5), 500u);
  EXPECT_EQ(percentile_sorted(thousand, 0.99), 990u);
  EXPECT_EQ(percentile_sorted(thousand, 0.999), 999u);

  const std::vector<std::uint32_t> skewed = {3, 3, 3, 7, 100};
  EXPECT_EQ(percentile_sorted(skewed, 0.5), 3u);   // ceil(2.5) = rank 3
  EXPECT_EQ(percentile_sorted(skewed, 0.7), 7u);   // ceil(3.5) = rank 4
  EXPECT_EQ(percentile_sorted(skewed, 0.81), 100u);

  EXPECT_EQ(percentile_sorted(std::vector<std::uint32_t>{42}, 0.999), 42u);
  EXPECT_THROW((void)percentile_sorted(std::vector<std::uint32_t>{}, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)percentile_sorted(ten, 1.5), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondAndMedian) {
  EXPECT_EQ(samples_beyond(1000, 0.999), 1u);
  EXPECT_EQ(samples_beyond(1'000'000, 0.999), 1000u);
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(10, 0.999), 0u);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Percentile, MinIntoKeepsEachItemsFastestPass) {
  std::vector<std::uint32_t> envelope;
  min_into(envelope, std::vector<std::uint32_t>{5, 1, 9});
  EXPECT_EQ(envelope, (std::vector<std::uint32_t>{5, 1, 9}));
  min_into(envelope, std::vector<std::uint32_t>{3, 4, 9});
  min_into(envelope, std::vector<std::uint32_t>{7, 2, 8});
  EXPECT_EQ(envelope, (std::vector<std::uint32_t>{3, 1, 8}));
  EXPECT_THROW(min_into(envelope, std::vector<std::uint32_t>{1, 2}),
               std::invalid_argument);
}

// The library's golden-master spec (tests/test_golden_master.cpp), whose
// SCIP counters at 8 MiB are pinned there.
cdn::WorkloadSpec golden_spec() {
  cdn::WorkloadSpec spec;
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

TEST(Decorators, TimedScipReproducesTheGoldenMaster) {
  const cdn::Trace trace = cdn::generate_trace(golden_spec());
  cdn::SimOptions opts;
  opts.window = 10'000;
  opts.warmup_frac = 0.2;

  std::shared_ptr<TimedAdvisor> advisor;
  const cdn::CachePtr timed =
      make_timed_scip_lru(kGoldenCapacity, 1, &advisor);
  ThreadTrace tt(std::chrono::steady_clock::now());
  cdn::SimResult r;
  {
    const ThreadTrace::Scope scope(tt);
    r = cdn::simulate(*timed, trace, opts);
  }
  EXPECT_EQ(r.policy, "SCIP");
  EXPECT_EQ(r.hits, 13'721u);
  EXPECT_EQ(r.bytes_hit, 138'052'766u);
  EXPECT_EQ(r.warm_hits, 11'406u);
  EXPECT_EQ(r.warm_bytes_hit, 116'858'710u);

  const cdn::CachePtr bare = cdn::make_cache("SCIP", kGoldenCapacity);
  const cdn::SimResult b = cdn::simulate(*bare, trace, opts);
  EXPECT_TRUE(cdn::deterministic_equal(r, b));

  // The decorator saw every hook: one on_request per request, one
  // on_miss per miss.
  const auto& on_request =
      tt.totals()[static_cast<std::size_t>(Layer::kScipOnRequest)];
  const auto& on_miss =
      tt.totals()[static_cast<std::size_t>(Layer::kScipOnMiss)];
  EXPECT_EQ(on_request.calls, trace.size());
  EXPECT_EQ(on_miss.calls, trace.size() - r.hits);
  EXPECT_GT(advisor->inner().prom_decisions(), 0u);
}

TEST(Decorators, OneNodeClusterOfTimedNodesMatchesUnsharded) {
  cdn::WorkloadSpec spec = golden_spec();
  spec.n_requests = 20'000;
  const cdn::Trace trace = cdn::generate_trace(spec);

  cdn::cluster::ClusterCacheConfig cfg;
  cfg.policy = "SCIP";
  cfg.capacity_bytes = kGoldenCapacity;
  cfg.nodes = 1;
  cfg.seed = 1;
  cdn::cluster::ClusterCache cluster(
      cfg, [](std::uint64_t cap, std::size_t node) -> cdn::CachePtr {
        return std::make_unique<TimedCache>(
            make_timed_scip_lru(cap, 1 + node));
      });
  const cdn::CachePtr plain = cdn::make_cache("SCIP", kGoldenCapacity, 1);
  ThreadTrace tt(std::chrono::steady_clock::now());
  const ThreadTrace::Scope scope(tt);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool h = cluster.access(trace[i]);
    ASSERT_EQ(h, plain->access(trace[i])) << "diverged at request " << i;
    hits += h ? 1 : 0;
  }
  EXPECT_EQ(cluster.used_bytes(), plain->used_bytes());
  const cdn::cluster::ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.requests, trace.size());
  EXPECT_EQ(t.hits, hits);
  EXPECT_EQ(t.hits + t.peer_fills + t.origin_fetches, t.requests);
  EXPECT_EQ(tt.totals()[static_cast<std::size_t>(Layer::kNodeAccess)].calls,
            trace.size());

  // Residency probes through the decorator agree with the bare cache.
  for (std::size_t i = 0; i < trace.size(); i += 97) {
    EXPECT_EQ(cluster.contains(trace[i].id), plain->contains(trace[i].id));
  }
}

TEST(Spans, SampledRequestsKeepParentLinkedRecords) {
  ThreadTrace tt(std::chrono::steady_clock::now());
  const ThreadTrace::Scope scope(tt);
  tt.begin_request(7, true);
  const std::uint32_t root_parent = tt.open();
  const std::uint64_t t0 = tt.now_ns();
  { Span child(Layer::kScipOnMiss); }
  tt.close(Layer::kAccessMiss, t0, tt.now_ns(), root_parent);
  tt.begin_request(8, false);
  { Span unsampled(Layer::kScipOnMiss); }

  ASSERT_EQ(tt.spans().size(), 2u);
  const SpanRecord& child = tt.spans()[0];
  const SpanRecord& root = tt.spans()[1];
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(child.parent, root.id);
  EXPECT_EQ(child.request, 7u);
  EXPECT_LE(root.start_ns, child.start_ns);
  EXPECT_GE(root.end_ns, child.end_ns);
  // Totals cover every request, sampled or not.
  EXPECT_EQ(tt.totals()[static_cast<std::size_t>(Layer::kScipOnMiss)].calls,
            2u);
}

}  // namespace
}  // namespace perfbench
