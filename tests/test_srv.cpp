// Tests for the lock-striped cache service — a one-tier cluster::Topology of
// salt-0 nodes — and its load generator (src/srv): routing purity and
// stability, capacity partitioning, single-node equivalence with the
// unsharded policies, batch/sequential equivalence on any topology,
// hash forwarding, snapshot aggregation, load-generator partitioning and
// determinism, and a multi-worker stress run that TSan checks for data
// races (see the tsan job in ci.yml).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "core/registry.hpp"
#include "counting_cache.hpp"
#include "sim/simulator.hpp"
#include "srv/load_gen.hpp"
#include "topology_fixtures.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdn::srv {
namespace {

using cluster::NodeStats;
using cluster::Placement;
using cluster::Tier;
using cluster::Topology;

WorkloadSpec small_spec(std::uint64_t seed = 7) {
  WorkloadSpec spec;
  spec.name = "srv-small";
  spec.seed = seed;
  spec.n_requests = 20'000;
  spec.catalog_size = 2'000;
  spec.zipf_alpha = 0.9;
  spec.mean_size = 4'000;
  spec.max_size = 1 << 18;
  return spec;
}

/// The striped service: `shards` nodes of `policy` sharing `capacity`,
/// node i seeded 1 + i.
Topology service(const std::string& policy, std::uint64_t capacity,
                 std::size_t shards) {
  return Topology(cluster::striped(
      capacity, shards, [&policy](std::uint64_t share, std::size_t i) {
        return make_cache(policy, share, 1 + i);
      }));
}

/// Routing-only service: placement never reads the node policies.
Topology routing_only(std::size_t shards) {
  return service("LRU", 1 << 20, shards);
}

TEST(ShardRouting, IsPureFunctionOfKey) {
  for (std::size_t shards : {1, 2, 4, 8, 16, 7}) {
    const Topology topo = routing_only(shards);
    for (std::uint64_t id : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
      const std::size_t s = topo.place(0, id, 0, 0);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, topo.place(0, id, id + 9, 3));  // index, child ignored
      EXPECT_EQ(s, hash64(id) % shards);
      EXPECT_EQ(s, cluster::route_mod(id, 0, shards));
    }
  }
  // One shard routes everything to shard 0.
  EXPECT_EQ(routing_only(1).place(0, 0xdeadbeefULL, 0, 0), 0u);
}

TEST(ShardRouting, IsBitwiseStableAcrossReleases) {
  // Pinned values: changing hash64 or the reduction silently reshuffles
  // every object across shards and invalidates all sharded measurements,
  // so the mapping is part of the repo's determinism contract.
  const Topology s16 = routing_only(16);
  EXPECT_EQ(s16.place(0, 0, 0, 0), 15u);
  EXPECT_EQ(s16.place(0, 1, 0, 0), 1u);
  EXPECT_EQ(s16.place(0, 2, 0, 0), 14u);
  EXPECT_EQ(s16.place(0, 3, 0, 0), 13u);
  EXPECT_EQ(s16.place(0, 42, 0, 0), 5u);
  EXPECT_EQ(s16.place(0, 1000, 0, 0), 8u);
  EXPECT_EQ(s16.place(0, 0xdeadbeef, 0, 0), 11u);
  EXPECT_EQ(routing_only(8).place(0, 0xdeadbeef, 0, 0), 3u);
  EXPECT_EQ(routing_only(4).place(0, 0xdeadbeef, 0, 0), 3u);
  EXPECT_EQ(routing_only(2).place(0, 0xdeadbeef, 0, 0), 1u);
}

TEST(ShardCapacity, PartitionsSumToTotalAndAreBalanced) {
  // Totals chosen to exercise zero remainder, remainder, and total < shards.
  for (std::uint64_t total : {0ULL, 5ULL, 64ULL, 1000ULL, 1ULL << 30,
                              (1ULL << 30) + 13}) {
    for (std::size_t shards : {1, 2, 3, 7, 8, 16}) {
      std::uint64_t sum = 0;
      std::uint64_t lo = ~0ULL, hi = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::uint64_t c = cluster::capacity_share(total, shards, s);
        sum += c;
        lo = std::min(lo, c);
        hi = std::max(hi, c);
      }
      EXPECT_EQ(sum, total) << total << "/" << shards;
      EXPECT_LE(hi - lo, 1u) << total << "/" << shards;
    }
  }
}

TEST(StripedService, ShardCapacitiesReachTheFactory) {
  std::vector<std::uint64_t> seen;
  const Topology cache(
      cluster::striped(1001, 4, [&](std::uint64_t cap, std::size_t) {
        seen.push_back(cap);
        return make_cache("LRU", cap);
      }));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{251, 250, 250, 250}));
  EXPECT_EQ(cache.capacity(), 1001u);
  EXPECT_EQ(cache.name(), "topology(LRU*4)");
}

TEST(StripedService, OneShardMatchesUnshardedExactly) {
  // The acceptance criterion behind bench_throughput's golden cross-check:
  // a 1-node tier is the wrapped policy — same hit/miss sequence request
  // by request, same occupancy and metadata.
  const Trace trace = generate_trace(small_spec());
  constexpr std::uint64_t kCap = 4ULL << 20;
  for (const char* policy : {"SCIP", "LRU", "SCI", "LIP"}) {
    auto plain = make_cache(policy, kCap);
    Topology one = service(policy, kCap, 1);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(one.access(trace[i]), plain->access(trace[i]))
          << policy << " diverged at request " << i;
    }
    EXPECT_EQ(one.used_bytes(), plain->used_bytes()) << policy;
    EXPECT_EQ(one.metadata_bytes(), plain->metadata_bytes()) << policy;
  }
}

/// The three batch inputs: the 4-node striped service, the TDC chain with
/// two SCIP OCs in front of one LRU DC, and a tree with round-robin leaves.
std::unique_ptr<Topology> batch_input(int which) {
  switch (which) {
    case 0:
      return std::make_unique<Topology>(cluster::striped(
          2ULL << 20, 4, [](std::uint64_t share, std::size_t i) {
            return make_cache("SCIP", share, 1 + i);
          }));
    case 1: {
      std::vector<CachePtr> oc;
      oc.push_back(make_cache("SCIP", 1ULL << 20, 3));
      oc.push_back(make_cache("SCIP", 1ULL << 20, 4));
      return std::make_unique<Topology>(
          cluster::tdc_chain(std::move(oc), cluster::fixtures::lru_nodes(
                                                1, 2ULL << 20)));
    }
    default: {
      std::vector<Tier> tiers;
      tiers.push_back(cluster::fixtures::tree_tier(
          Placement::kRoundRobin, "LRU", 256 << 10, 5, {2, 3, 5, 6}));
      tiers.push_back(cluster::fixtures::tree_tier(
          Placement::kChildBlock, "SCIP", 1ULL << 20, 5, {1, 4}));
      tiers.push_back(cluster::fixtures::tree_tier(
          Placement::kChildBlock, "LRU", 2ULL << 20, 5, {0}));
      return std::make_unique<Topology>(std::move(tiers));
    }
  }
}

TEST(StripedService, BatchMatchesSequentialAccess) {
  const Trace trace = generate_trace(small_spec(11));
  // 97 is deliberately not a power of two; 1500 overflows the stack
  // scratch and takes the heap spill.
  for (const std::size_t batch : {97, 1500}) {
    for (int which = 0; which < 3; ++which) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " input " +
                   std::to_string(which));
      const std::unique_ptr<Topology> seq = batch_input(which);
      const std::unique_ptr<Topology> batched = batch_input(which);
      std::vector<bool> expect_hits(trace.size());
      for (std::size_t i = 0; i < trace.size(); ++i) {
        expect_hits[i] = seq->access(trace[i]);
      }
      std::vector<char> got(trace.size(), 0);
      const std::unique_ptr<bool[]> hits(new bool[batch]);
      for (std::size_t lo = 0; lo < trace.size(); lo += batch) {
        const std::size_t n = std::min(batch, trace.size() - lo);
        // Rotate the walk origin every batch: it must never change results.
        batched->access_batch(&trace.requests[lo], n, hits.get(), lo % 4);
        for (std::size_t j = 0; j < n; ++j) got[lo + j] = hits[j];
      }
      for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(static_cast<bool>(got[i]), expect_hits[i])
            << "batch/sequential divergence at request " << i;
      }
      EXPECT_EQ(batched->used_bytes(), seq->used_bytes());
      for (std::size_t t = 0; t < seq->tier_count(); ++t) {
        for (std::size_t n = 0; n < seq->node_count(t); ++n) {
          EXPECT_EQ(batched->stats(t, n), seq->stats(t, n))
              << "tier " << t << " node " << n;
        }
      }
    }
  }
}

TEST(StripedService, ForwardsTheRoutingHash) {
  // The routing hash is the request's only hash64: access, contains and
  // every request of a batch reach each tier's node policy through the
  // hashed entry points, with h == hash64(id) — on the one-tier service
  // and on a two-tier chain whose tiers route on salted hashes.
  using fakes::CountingFake;
  for (const std::size_t tiers : {1, 2}) {
    SCOPED_TRACE(std::to_string(tiers) + " tiers");
    CountingFake::Counters counters;
    const auto fake = [&counters](std::uint64_t cap, std::size_t) -> CachePtr {
      return std::make_unique<CountingFake>(cap, &counters);
    };
    std::vector<Tier> spec = cluster::striped(1 << 20, 4, fake);
    if (tiers == 2) {
      spec = cluster::tdc_chain(std::move(spec[0].nodes),
                                std::move(cluster::striped(1 << 20, 2, fake)
                                              .front()
                                              .nodes));
    }
    Topology cache(std::move(spec));
    constexpr std::size_t kRequests = 100;
    std::vector<Request> reqs(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      reqs[i].id = 7 * i + 3;
      reqs[i].size = 100;
      cache.access(reqs[i]);
      (void)cache.contains(reqs[i].id);
    }
    bool hits[kRequests];
    cache.access_batch(reqs.data(), kRequests, hits);
    // The fake always misses, so every request crosses every tier.
    EXPECT_EQ(counters.access_hashed.load(), 2 * tiers * kRequests);
    EXPECT_EQ(counters.contains_hashed.load(), tiers * kRequests);
    // A node serving a batch run hints ahead with the run's hashes.
    EXPECT_GT(counters.prefetch_hashed.load(), 0u);
    EXPECT_EQ(counters.unhashed_prefetch.load(), 0u);
    EXPECT_EQ(counters.unhashed.load(), 0u);
    EXPECT_EQ(counters.bad_hash.load(), 0u);
    for (std::size_t t = 0; t < tiers; ++t) {
      EXPECT_EQ(cache.tier_stats(t).requests, 2 * kRequests);
    }
  }
}

TEST(StripedService, HintForwardsTheHashOnceToTheEdgeNode) {
  // prefetch() and prefetch_hashed() reach the edge node that will serve
  // the id once, through its policy's prefetch_hashed with h == hash64(id)
  // (also behind a salted edge tier), and nothing else: no deeper tier, no
  // access or residency probe, no plain prefetch, no counter booked. A
  // round-robin edge tier's node depends on the request index, so it gets
  // no hint at all.
  using fakes::CountingFake;
  constexpr std::size_t kEdge = 4;
  const std::pair<Placement, std::uint64_t> kEdges[] = {
      {Placement::kSaltedMod, 0},
      {Placement::kSaltedMod, cluster::kOcRouteSalt},
      {Placement::kRoundRobin, 0}};
  for (const auto& [placement, salt] : kEdges) {
    const bool hinted = placement == Placement::kSaltedMod;
    SCOPED_TRACE("salted " + std::to_string(hinted) + ", salt " +
                 std::to_string(salt));
    std::array<CountingFake::Counters, kEdge + 1> counters;  // + the root
    std::vector<Tier> spec(2);
    spec[0].placement = placement;
    spec[0].salt = salt;
    for (std::size_t i = 0; i < kEdge; ++i) {
      spec[0].nodes.push_back(
          std::make_unique<CountingFake>(1 << 20, &counters[i]));
    }
    spec[1].nodes.push_back(
        std::make_unique<CountingFake>(1 << 20, &counters[kEdge]));
    Topology cache(std::move(spec));
    std::uint64_t expected[kEdge] = {};
    for (std::uint64_t id = 0; id < 100; ++id) {
      if (id % 2 == 0) {
        cache.prefetch(id);
      } else {
        cache.prefetch_hashed(id, hash64(id));
      }
      if (hinted) ++expected[cache.place(0, id, 0, 0)];
    }
    for (std::size_t i = 0; i <= kEdge; ++i) {
      const CountingFake::Counters& c = counters[i];
      EXPECT_EQ(c.prefetch_hashed.load(), i < kEdge ? expected[i] : 0u)
          << "node " << i;
      EXPECT_EQ(c.unhashed_prefetch.load(), 0u);
      EXPECT_EQ(c.access_hashed.load(), 0u);
      EXPECT_EQ(c.contains_hashed.load(), 0u);
      EXPECT_EQ(c.unhashed.load(), 0u);
      EXPECT_EQ(c.bad_hash.load(), 0u);
    }
    for (std::size_t t = 0; t < cache.tier_count(); ++t) {
      EXPECT_EQ(static_cast<const FlowStats&>(cache.tier_stats(t)),
                FlowStats{})
          << "tier " << t;
    }
  }
}

TEST(StripedService, SnapshotAggregatesCounters) {
  const Trace trace = generate_trace(small_spec(3));
  constexpr std::uint64_t kCap = 2ULL << 20;
  constexpr std::size_t kShards = 8;
  Topology cache = service("SCIP", kCap, kShards);

  std::uint64_t hits = 0, bytes = 0, bytes_hit = 0;
  for (const Request& r : trace.requests) {
    const bool hit = cache.access(r);
    hits += hit;
    bytes += r.size;
    bytes_hit += hit ? r.size : 0;
  }
  ASSERT_EQ(cache.node_count(0), kShards);
  std::vector<NodeStats> per_shard;
  for (std::size_t s = 0; s < kShards; ++s) {
    per_shard.push_back(cache.stats(0, s));
  }
  const NodeStats total = cache.tier_stats(0);
  EXPECT_EQ(total.requests, trace.size());
  EXPECT_EQ(total.hits, hits);
  EXPECT_EQ(total.bytes_total, bytes);
  EXPECT_EQ(total.bytes_hit, bytes_hit);
  EXPECT_EQ(total.capacity_bytes, kCap);
  EXPECT_EQ(total.used_bytes, cache.used_bytes());
  EXPECT_EQ(total.metadata_bytes, cache.metadata_bytes());
  // The one tier is the root: every miss went to the origin.
  EXPECT_EQ(total.origin_fetches, trace.size() - hits);
  EXPECT_EQ(total.origin_bytes, bytes - bytes_hit);
  // Every shard saw only requests routed to it.
  std::vector<std::uint64_t> routed(kShards, 0);
  for (const Request& r : trace.requests) {
    ++routed[cache.place(0, r.id, 0, 0)];
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(per_shard[s].requests, routed[s]) << "shard " << s;
  }
  EXPECT_GE(cluster::occupancy_skew(per_shard), 1.0);
  EXPECT_EQ(cluster::occupancy_skew({}), 1.0);  // no bytes: balanced
}

TEST(StripedService, SimulateDrivesTheServiceLikeAnyCache) {
  // A Topology is a Cache, so the deterministic replay phase of the
  // throughput bench is just simulate(); two replays agree bitwise.
  const Trace trace = generate_trace(small_spec(5));
  Topology a = service("SCIP", 2ULL << 20, 4);
  Topology b = service("SCIP", 2ULL << 20, 4);
  const SimResult ra = simulate(a, trace);
  const SimResult rb = simulate(b, trace);
  EXPECT_TRUE(deterministic_equal(ra, rb));
  EXPECT_EQ(ra.policy, "topology(SCIP*4)");
}

TEST(LoadGenTest, RoundRobinPartitionIsCompleteAndOrdered) {
  const Trace trace = generate_trace(small_spec(9));
  LoadGenOptions opts;
  opts.workers = 3;
  const LoadGen gen(trace, opts);
  ASSERT_EQ(gen.workers(), 3u);
  std::size_t total = 0;
  for (std::size_t w = 0; w < gen.workers(); ++w) {
    const auto& stream = gen.stream(w);
    total += stream.size();
    // Worker w owns exactly the requests with index % workers == w, in
    // trace order.
    for (std::size_t j = 0; j < stream.size(); ++j) {
      const Request& orig = trace[w + j * opts.workers];
      EXPECT_EQ(stream[j].id, orig.id);
      EXPECT_EQ(stream[j].size, orig.size);
    }
  }
  EXPECT_EQ(total, trace.size());
}

TEST(LoadGenTest, RunCountsEveryRequestAndRecordsLatency) {
  const Trace trace = generate_trace(small_spec(13));
  LoadGenOptions opts;
  opts.workers = 4;
  opts.batch_size = 128;
  const LoadGen gen(trace, opts);
  Topology cache = service("SCIP", 2ULL << 20, 4);
  ThreadPool pool(opts.workers);
  const LoadGenResult res = gen.run(cache, pool);
  EXPECT_EQ(res.requests, trace.size());
  EXPECT_EQ(res.latency_ns.total(), trace.size());
  EXPECT_GT(res.wall_seconds, 0.0);
  EXPECT_GT(res.rps(), 0.0);
  EXPECT_LE(res.latency_p50_ns(), res.latency_p99_ns());
  EXPECT_LE(res.latency_p99_ns(), res.latency_p999_ns());
  // The service really processed the load: counters agree with the result.
  const NodeStats total = cache.tier_stats(0);
  EXPECT_EQ(total.requests, res.requests);
  EXPECT_EQ(total.hits, res.hits);
  EXPECT_EQ(total.bytes_total, res.bytes_total);
}

TEST(StripedServiceStress, ConcurrentBatchesAndSnapshotsAreRaceFree) {
  // 8 workers hammer access_batch on overlapping key ranges while a 9th
  // polls tier_stats()/contains()/used_bytes(). The assertions here are
  // weak sanity checks; the real verdict comes from running this test
  // under TSan (ci.yml tsan job), which sees the annotated Mutex edges.
  const Trace trace = generate_trace(small_spec(17));
  LoadGenOptions opts;
  opts.workers = 8;
  opts.batch_size = 64;
  const LoadGen gen(trace, opts);
  // Fewer shards than workers -> real lock contention.
  Topology cache = service("SCIP", 1ULL << 20, 4);
  ThreadPool pool(opts.workers + 1);

  std::atomic<bool> stop{false};
  auto poller = pool.submit([&] {
    std::uint64_t polls = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const NodeStats t = cache.tier_stats(0);
      EXPECT_LE(t.used_bytes, t.capacity_bytes);
      EXPECT_LE(cache.used_bytes(), cache.capacity());
      (void)cache.contains(trace[polls % trace.size()].id);
      ++polls;
    }
    return polls;
  });
  const LoadGenResult res = gen.run(cache, pool);
  stop.store(true, std::memory_order_release);
  EXPECT_GT(poller.get(), 0u);
  EXPECT_EQ(res.requests, trace.size());
  EXPECT_EQ(cache.tier_stats(0).requests, trace.size());
}

}  // namespace
}  // namespace cdn::srv
