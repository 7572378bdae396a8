// Tests for cluster::ClusterCache (src/cluster): single-node exact
// equivalence with the unsharded policy, the hash-once-per-request
// discipline (pinned with counting fake nodes), per-node flow
// conservation (hits + peer fills + origin fetches == requests), the
// replication-knob contract (peer fill only re-attributes miss bytes,
// never changes a hit/miss outcome), replica-set consistency, join/leave
// warm-transfer rebalancing with structural audits, deterministic
// schedule-driven churn pinned to literal counters, client-side counters
// matching the totals, exact per-node sums under concurrent drivers, and
// TSan-level thread safety of concurrent access + snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_cache.hpp"
#include "core/registry.hpp"
#include "counting_cache.hpp"
#include "sim/audit/invariants.hpp"
#include "sim/queue_cache.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/stressors/scenarios.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdn::cluster {
namespace {

constexpr std::uint64_t kCap = 4ULL << 20;

WorkloadSpec small_spec(std::uint64_t seed = 7) {
  WorkloadSpec spec;
  spec.name = "cluster-unit";
  spec.seed = seed;
  spec.n_requests = 20'000;
  spec.catalog_size = 2'000;
  spec.zipf_alpha = 0.9;
  spec.mean_size = 4'000;
  spec.max_size = 1 << 18;
  return spec;
}

/// A trace whose working set becomes hot fast: `ids` objects round-robin,
/// every object crosses any reasonable threshold within a few laps.
Trace hot_trace(std::size_t ids, std::size_t laps, std::uint64_t size) {
  Trace trace;
  trace.name = "hot-roundrobin";
  trace.requests.reserve(ids * laps);
  for (std::size_t lap = 0; lap < laps; ++lap) {
    for (std::size_t i = 0; i < ids; ++i) {
      Request req;
      req.id = 1000 + i;
      req.size = size;
      trace.requests.push_back(req);
    }
  }
  return trace;
}

/// One-access-per-id trace for migration tests (no eviction, stable
/// resident sets).
Trace unique_trace(std::size_t ids, std::uint64_t size) {
  Trace trace;
  trace.name = "unique";
  trace.requests.reserve(ids);
  for (std::size_t i = 0; i < ids; ++i) {
    Request req;
    req.id = 50'000 + i;
    req.size = size;
    trace.requests.push_back(req);
  }
  return trace;
}

void expect_flow_conservation(const ClusterCache& cluster) {
  std::uint64_t requests = 0;
  for (const ClusterNodeStats& ns : cluster.node_stats()) {
    const FlowStats& f = ns.shard;
    EXPECT_EQ(f.requests, f.hits + f.peer_fills + f.origin_fetches)
        << "node " << ns.name;
    requests += ns.shard.requests;
  }
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.requests, requests);
  EXPECT_EQ(t.requests, t.hits + t.peer_fills + t.origin_fetches);
}

void expect_queue_audits_pass(ClusterCache& cluster) {
  for (std::uint32_t n = 0; n < cluster.node_count(); ++n) {
    cluster.with_node_cache(n, [n](Cache& c) {
      const auto* qc = dynamic_cast<const QueueCache*>(&c);
      ASSERT_NE(qc, nullptr);
      const audit::AuditReport report =
          audit::Inspector::check(qc->audit_queue(), c.capacity());
      EXPECT_TRUE(report.ok()) << "node " << n << ": " << report.to_string();
    });
  }
}

TEST(ClusterCache, OneNodeMatchesUnshardedExactly) {
  // The cluster around a single node must be a pure pass-through: same
  // hit/miss on every request as the bare policy at the same capacity and
  // seed. This is the cluster analogue of the srv one-shard cross-check
  // and the golden anchor bench_cluster re-verifies.
  const Trace trace = generate_trace(small_spec());
  for (const std::string policy : {"SCIP", "LRU", "SCI", "LIP"}) {
    ClusterCacheConfig cfg;
    cfg.policy = policy;
    cfg.capacity_bytes = kCap;
    cfg.nodes = 1;
    cfg.seed = 1;
    ClusterCache cluster(cfg);
    const CachePtr plain = make_cache(policy, kCap, cfg.seed);
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
      ASSERT_EQ(cluster.access(trace.requests[i]),
                plain->access(trace.requests[i]))
          << policy << " diverged at request " << i;
    }
    EXPECT_EQ(cluster.used_bytes(), plain->used_bytes()) << policy;
    const ClusterTotals t = cluster.totals();
    EXPECT_EQ(t.requests, trace.requests.size());
    expect_flow_conservation(cluster);
  }
}

TEST(ClusterCache, HashesEachRequestExactlyOnce) {
  using fakes::CountingFake;
  CountingFake::Counters counters;
  ClusterCacheConfig cfg;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.replicate_hot = true;
  cfg.hot_threshold = 1;  // every key is hot from its first request
  cfg.hot_window = 1 << 20;
  cfg.backing = "null";
  ClusterCache cluster(cfg, [&counters](std::uint64_t capacity,
                                        std::size_t /*node*/) {
    return std::make_unique<CountingFake>(capacity, &counters);
  });

  const std::size_t kRequests = 500;
  for (std::size_t i = 0; i < kRequests; ++i) {
    Request req;
    req.id = i % 10;
    req.size = 100;
    cluster.access(req);
  }
  // Every request reached exactly one node through access_hashed; every
  // miss probed exactly the k-1 = 1 other owner through contains_hashed;
  // the raw access()/contains() entry points were never used and every
  // forwarded hash was hash64(id).
  EXPECT_EQ(counters.access_hashed.load(), kRequests);
  EXPECT_EQ(counters.contains_hashed.load(), kRequests);
  EXPECT_EQ(counters.unhashed.load(), 0u);
  EXPECT_EQ(counters.bad_hash.load(), 0u);
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.hot_spread_requests, kRequests);
  // backing = "null": every miss went to the origin, free of charge.
  EXPECT_EQ(t.origin_fetches, kRequests);
  EXPECT_EQ(t.origin_time_us, 0u);
}

TEST(ClusterCache, FlowConservationUnderFlashCrowd) {
  const Trace trace =
      stress::make_stressed_trace(stress::make_stress_scenario("flash", 0.02));
  ClusterCacheConfig cfg;
  cfg.policy = "SCIP";
  cfg.capacity_bytes = 32ULL << 20;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.hot_threshold = 16;
  cfg.hot_window = 4096;
  ClusterCache cluster(cfg);
  const SimResult res = simulate(cluster, trace);
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(res.requests, t.requests);
  EXPECT_EQ(res.hits, t.hits);
  EXPECT_EQ(res.bytes_total, t.bytes_total);
  EXPECT_EQ(res.bytes_hit, t.bytes_hit);
  EXPECT_GT(t.hot_spread_requests, 0u);
  EXPECT_GT(t.peer_fills, 0u);
  expect_flow_conservation(cluster);
}

TEST(ClusterCache, ReplicationKnobOnlyChangesMissAttribution) {
  // The arms differ only in cooperative peer fill (read-only probes), so
  // the hit/miss outcome of every single request must be identical; what
  // may change is how many miss bytes were served by peers vs origin.
  const Trace trace = hot_trace(/*ids=*/64, /*laps=*/200, /*size=*/10'000);
  ClusterCacheConfig cfg;
  cfg.policy = "LRU";
  cfg.capacity_bytes = 16ULL << 20;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.hot_threshold = 8;
  cfg.hot_window = 4096;
  cfg.replicate_hot = true;
  ClusterCache with(cfg);
  cfg.replicate_hot = false;
  ClusterCache without(cfg);

  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    ASSERT_EQ(with.access(trace.requests[i]),
              without.access(trace.requests[i]))
        << "arms diverged at request " << i;
  }
  const ClusterTotals on = with.totals();
  const ClusterTotals off = without.totals();
  EXPECT_EQ(on.requests, off.requests);
  EXPECT_EQ(on.hits, off.hits);
  EXPECT_EQ(on.bytes_hit, off.bytes_hit);
  EXPECT_EQ(on.hot_spread_requests, off.hot_spread_requests);
  // Spreading happens in both arms; peer fill only with the knob on.
  EXPECT_GT(on.hot_spread_requests, 0u);
  EXPECT_EQ(off.peer_fills, 0u);
  EXPECT_GT(on.peer_fills, 0u);
  EXPECT_EQ(on.origin_bytes + on.peer_fill_bytes, off.origin_bytes);
  EXPECT_LT(on.origin_bytes, off.origin_bytes);
  expect_flow_conservation(with);
  expect_flow_conservation(without);
}

TEST(ClusterCache, CopiesStayWithinTheReplicaOwnerSet) {
  const Trace trace = hot_trace(/*ids=*/64, /*laps=*/100, /*size=*/10'000);
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{3}}) {
    ClusterCacheConfig cfg;
    cfg.policy = "LRU";
    cfg.capacity_bytes = 64ULL << 20;  // no eviction: copies persist
    cfg.nodes = 5;
    cfg.replicas = replicas;
    cfg.hot_threshold = 8;
    cfg.hot_window = 4096;
    ClusterCache cluster(cfg);
    for (const Request& req : trace.requests) cluster.access(req);

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint64_t id = 1000 + i;
      const std::vector<std::uint32_t> owners = cluster.owners_of(id);
      ASSERT_EQ(owners.size(), replicas);
      EXPECT_TRUE(cluster.contains(id));
      for (std::uint32_t n = 0; n < cluster.node_count(); ++n) {
        if (!cluster.node_contains(n, id)) continue;
        // Without membership churn a copy may only live on a replica
        // owner; with replicas=1 that is the primary alone.
        EXPECT_NE(std::find(owners.begin(), owners.end(), n), owners.end())
            << "id " << id << " has a stray copy on node " << n;
      }
    }
  }
}

TEST(ClusterCache, JoinWarmTransfersTheAdjacentRanges) {
  // Queue policies and two that are not (S4LRU's segments, GDSF's
  // priority order) all hand their residents over through
  // Cache::for_each_resident.
  const std::size_t kIds = 1'000;
  const Trace trace = unique_trace(kIds, /*size=*/1'000);
  for (const std::string policy : {"LRU", "S4LRU", "GDSF"}) {
    SCOPED_TRACE(policy);
    ClusterCacheConfig cfg;
    cfg.policy = policy;
    cfg.capacity_bytes = 64ULL << 20;  // no eviction anywhere
    cfg.nodes = 2;
    cfg.replicas = 1;  // pure placement test, no spreading
    ClusterCache cluster(cfg);
    for (const Request& req : trace.requests) cluster.access(req);
    ASSERT_EQ(cluster.totals().requests, kIds);

    const std::uint32_t joiner = cluster.join();
    EXPECT_EQ(joiner, 2u);
    EXPECT_EQ(cluster.live_node_count(), 3u);

    const ClusterTotals t = cluster.totals();
    std::size_t reowned = 0;
    for (const Request& req : trace.requests) {
      const std::vector<std::uint32_t> owners = cluster.owners_of(req.id);
      ASSERT_EQ(owners.size(), 1u);
      if (owners[0] == joiner) {
        ++reowned;
        // Warm transfer: the joiner received its ranges' residents.
        EXPECT_TRUE(cluster.node_contains(joiner, req.id));
      }
    }
    EXPECT_EQ(t.migrated_keys, reowned);
    EXPECT_EQ(t.migrated_bytes, reowned * 1'000u);
    // Consistent-hashing bound: the joiner claims ~1/3 of the key space.
    const double frac = static_cast<double>(reowned) / kIds;
    EXPECT_LE(frac, 1.0 / 3 + 0.12);
    EXPECT_GE(frac, 0.1);
    // Migration used the normal admission path; every queue stays sound.
    if (policy == "LRU") expect_queue_audits_pass(cluster);
    expect_flow_conservation(cluster);

    // Re-accessing a migrated key hits its new owner (warm, not cold).
    std::uint64_t hits = 0;
    for (const Request& req : trace.requests) {
      if (cluster.owners_of(req.id)[0] == joiner) {
        hits += cluster.access(req) ? 1 : 0;
      }
    }
    EXPECT_EQ(hits, reowned);
  }
}

TEST(ClusterCache, LeaveDrainsResidentsToTheirNewOwners) {
  const std::size_t kIds = 1'200;
  const Trace trace = unique_trace(kIds, /*size=*/1'000);
  ClusterCacheConfig cfg;
  cfg.policy = "LRU";
  cfg.capacity_bytes = 96ULL << 20;
  cfg.nodes = 3;
  cfg.replicas = 1;
  ClusterCache cluster(cfg);
  for (const Request& req : trace.requests) cluster.access(req);

  // Owners before the leave, and which ids the leaver held.
  constexpr std::uint32_t kLeaver = 0;
  std::vector<std::uint32_t> owner_before(kIds);
  for (std::size_t i = 0; i < kIds; ++i) {
    owner_before[i] = cluster.owners_of(trace.requests[i].id)[0];
  }

  cluster.leave(kLeaver);
  EXPECT_EQ(cluster.node_count(), 3u);  // slot retired, not destroyed
  EXPECT_EQ(cluster.live_node_count(), 2u);

  std::uint64_t drained = 0;
  for (std::size_t i = 0; i < kIds; ++i) {
    const std::uint64_t id = trace.requests[i].id;
    const std::uint32_t now = cluster.owners_of(id)[0];
    EXPECT_NE(now, kLeaver);
    if (owner_before[i] == kLeaver) {
      ++drained;
      EXPECT_TRUE(cluster.node_contains(now, id)) << "id " << id;
    } else {
      // Survivors' placements never move on a leave.
      EXPECT_EQ(now, owner_before[i]);
    }
  }
  EXPECT_GT(drained, 0u);
  EXPECT_EQ(cluster.totals().migrated_keys, drained);
  expect_queue_audits_pass(cluster);
  expect_flow_conservation(cluster);

  // The drained keys are warm on their new owners.
  for (std::size_t i = 0; i < kIds; ++i) {
    if (owner_before[i] == kLeaver) {
      EXPECT_TRUE(cluster.access(trace.requests[i]));
    }
  }

  EXPECT_THROW(cluster.leave(kLeaver), std::invalid_argument);  // not live
  cluster.leave(1);
  EXPECT_EQ(cluster.live_node_count(), 1u);
  EXPECT_THROW(cluster.leave(2), std::invalid_argument);  // last live node
}

TEST(ClusterCache, ScheduledChurnIsDeterministic) {
  const Trace trace =
      stress::make_stressed_trace(stress::make_stress_scenario("flash", 0.02));
  ClusterCacheConfig cfg;
  cfg.policy = "SCIP";
  cfg.capacity_bytes = 32ULL << 20;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.hot_threshold = 16;
  cfg.hot_window = 4096;
  const auto n = static_cast<std::uint64_t>(trace.requests.size());
  cfg.schedule = {{n * 4 / 10, MembershipEvent::Kind::kJoin, 0},
                  {n * 7 / 10, MembershipEvent::Kind::kLeave, 0}};

  ClusterCache a(cfg);
  ClusterCache b(cfg);
  const SimResult ra = simulate(a, trace);
  const SimResult rb = simulate(b, trace);
  EXPECT_TRUE(deterministic_equal(ra, rb));
  EXPECT_TRUE(deterministic_equal(a.totals(), b.totals()));
  // The schedule actually fired: one join (node 4) and one leave (node 0).
  EXPECT_EQ(a.node_count(), 5u);
  EXPECT_EQ(a.live_node_count(), 4u);
  EXPECT_GT(a.totals().migrated_keys, 0u);
  expect_flow_conservation(a);
}

TEST(ClusterCache, PinnedChurnCountersAreBitwiseStable) {
  // One driver through a churning 4-node SCIP cluster with peer fill on,
  // pinned to literal counters. Run-twice equality (above) cannot see a
  // change that shifts every run alike — a membership event firing one
  // request later, or a fill booked to the wrong node — this can.
  const Trace trace =
      stress::make_stressed_trace(stress::make_stress_scenario("flash", 0.02));
  ClusterCacheConfig cfg;
  cfg.policy = "SCIP";
  cfg.capacity_bytes = 32ULL << 20;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.replicate_hot = true;
  cfg.hot_threshold = 16;
  cfg.hot_window = 4096;
  const auto n = static_cast<std::uint64_t>(trace.requests.size());
  cfg.schedule = {{n * 4 / 10, MembershipEvent::Kind::kJoin, 0},
                  {n * 7 / 10, MembershipEvent::Kind::kLeave, 0}};
  ClusterCache cluster(cfg);
  for (const Request& req : trace.requests) cluster.access(req);

  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.requests, 20000u);
  EXPECT_EQ(t.hits, 5024u);
  EXPECT_EQ(t.bytes_total, 914802198u);
  EXPECT_EQ(t.bytes_hit, 198503716u);
  EXPECT_EQ(t.peer_fills, 77u);
  EXPECT_EQ(t.peer_fill_bytes, 3029517u);
  EXPECT_EQ(t.origin_fetches, 14899u);
  EXPECT_EQ(t.origin_bytes, 713268965u);
  EXPECT_EQ(t.origin_time_us, 1050062729u);
  EXPECT_EQ(t.peer_time_us, 1932580u);
  EXPECT_EQ(t.migrated_keys, 374u);
  EXPECT_EQ(t.migrated_bytes, 16961878u);
  EXPECT_EQ(t.hot_spread_requests, 1951u);

  struct NodePin {
    bool live;
    std::uint64_t requests, hits, bytes_total, bytes_hit, peer_fills,
        peer_fill_bytes, origin_fetches, origin_bytes, migrated_in_keys,
        migrated_in_bytes;
  };
  // Node 0 left at 70%; node 4 joined at 40%.
  const NodePin kPins[] = {
      {false, 4177, 1421, 196601903, 61469127, 25, 626259, 2731, 134506517,
       0, 0},
      {true, 4020, 671, 190712376, 34579193, 20, 1422989, 3329, 154710194,
       59, 2923366},
      {true, 4368, 965, 178533936, 33884649, 4, 89731, 3399, 144559556, 39,
       1494539},
      {true, 4592, 1259, 227053514, 45216612, 19, 607688, 3314, 181229214,
       56, 2396760},
      {true, 2843, 708, 121900469, 23354135, 9, 282850, 2126, 98263484, 220,
       10147213},
  };
  const std::vector<ClusterNodeStats> nodes = cluster.node_stats();
  ASSERT_EQ(nodes.size(), std::size(kPins));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ClusterNodeStats& ns = nodes[i];
    const NodePin& pin = kPins[i];
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(ns.live, pin.live);
    EXPECT_EQ(ns.shard.requests, pin.requests);
    EXPECT_EQ(ns.shard.hits, pin.hits);
    EXPECT_EQ(ns.shard.bytes_total, pin.bytes_total);
    EXPECT_EQ(ns.shard.bytes_hit, pin.bytes_hit);
    EXPECT_EQ(ns.shard.peer_fills, pin.peer_fills);
    EXPECT_EQ(ns.shard.peer_fill_bytes, pin.peer_fill_bytes);
    EXPECT_EQ(ns.shard.origin_fetches, pin.origin_fetches);
    EXPECT_EQ(ns.shard.origin_bytes, pin.origin_bytes);
    EXPECT_EQ(ns.migrated_in_keys, pin.migrated_in_keys);
    EXPECT_EQ(ns.migrated_in_bytes, pin.migrated_in_bytes);
  }
  expect_flow_conservation(cluster);
}

TEST(ClusterCache, ConcurrentClientsSeeTheClusterTotals) {
  // Four client threads, each driving a round-robin share of the trace
  // through access() and counting what it saw: the clients' hit and byte
  // counters must sum to the cluster's own totals.
  const Trace trace = generate_trace(small_spec(11));
  ClusterCacheConfig cfg;
  cfg.policy = "LRU";
  cfg.capacity_bytes = kCap;
  cfg.nodes = 4;
  ClusterCache cluster(cfg);
  constexpr std::size_t kClients = 4;
  std::vector<FlowStats> seen(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&cluster, &trace, &seen, c] {
      for (std::size_t i = c; i < trace.requests.size(); i += kClients) {
        const Request& req = trace.requests[i];
        seen[c].record(req.size, cluster.access(req));
      }
    });
  }
  for (auto& t : clients) t.join();
  FlowStats res;
  for (const FlowStats& s : seen) res += s;
  EXPECT_EQ(res.requests, trace.requests.size());
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.requests, trace.requests.size());
  EXPECT_EQ(t.hits, res.hits);
  EXPECT_EQ(t.bytes_total, res.bytes_total);
  EXPECT_EQ(t.bytes_hit, res.bytes_hit);
  expect_flow_conservation(cluster);
}

TEST(ClusterCache, ConcurrentAccessAndSnapshotsAreRaceFree) {
  // TSan coverage: concurrent drivers on a churning cluster while a poller
  // reads every snapshot surface. Counts (not hits) are deterministic
  // under concurrency, so only conservation is asserted.
  const Trace trace = generate_trace(small_spec(13));
  ClusterCacheConfig cfg;
  cfg.policy = "LRU";
  cfg.capacity_bytes = kCap;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.hot_threshold = 8;
  cfg.hot_window = 2048;
  cfg.schedule = {{trace.requests.size() / 2,
                   MembershipEvent::Kind::kJoin, 0}};
  ClusterCache cluster(cfg);

  constexpr std::size_t kWorkers = 8;
  ThreadPool pool(kWorkers + 1);
  std::atomic<bool> stop{false};
  std::future<void> poller = pool.submit([&cluster, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)cluster.totals();
      (void)cluster.node_stats();
      (void)cluster.contains(123);
      (void)cluster.used_bytes();
      (void)cluster.metadata_bytes();
      (void)cluster.owners_of(123);
    }
  });
  std::vector<std::future<void>> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.push_back(pool.submit([&cluster, &trace, w] {
      for (std::size_t i = w; i < trace.requests.size(); i += kWorkers) {
        cluster.access(trace.requests[i]);
      }
    }));
  }
  for (auto& f : workers) f.get();
  stop.store(true, std::memory_order_relaxed);
  poller.get();

  EXPECT_EQ(cluster.totals().requests, trace.requests.size());
  EXPECT_EQ(cluster.node_count(), 5u);
  expect_flow_conservation(cluster);
}

TEST(ClusterCache, ConcurrentPerNodeAccountingSumsToTotals) {
  // Requests are booked under the node locks and fills under the per-node
  // counter locks while a join() races the drivers. Afterwards every total
  // must be exactly the sum of the node records.
  const Trace trace =
      stress::make_stressed_trace(stress::make_stress_scenario("flash", 0.02));
  ClusterCacheConfig cfg;
  cfg.policy = "SCIP";
  cfg.capacity_bytes = 32ULL << 20;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.hot_threshold = 16;
  cfg.hot_window = 4096;
  ClusterCache cluster(cfg);

  constexpr std::size_t kDrivers = 4;
  const std::size_t n = trace.requests.size();
  ThreadPool pool(kDrivers + 1);
  std::atomic<std::size_t> served{0};
  std::future<std::uint32_t> joined = pool.submit([&cluster, &served, n] {
    while (served.load(std::memory_order_relaxed) < n / 2) {
      std::this_thread::yield();
    }
    return cluster.join();
  });
  std::vector<std::future<void>> drivers;
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.push_back(pool.submit([&cluster, &trace, &served, d, n] {
      for (std::size_t i = d; i < n; i += kDrivers) {
        cluster.access(trace.requests[i]);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    }));
  }
  for (auto& f : drivers) f.get();
  EXPECT_EQ(joined.get(), 4u);

  const ClusterTotals t = cluster.totals();
  ClusterTotals sum;
  for (const ClusterNodeStats& ns : cluster.node_stats()) {
    sum += ns.shard;
    sum.origin_time_us += ns.origin_time_us;
    sum.peer_time_us += ns.peer_time_us;
    sum.migrated_keys += ns.migrated_in_keys;
    sum.migrated_bytes += ns.migrated_in_bytes;
  }
  sum.hot_spread_requests = t.hot_spread_requests;  // not a node counter
  EXPECT_EQ(t.requests, n);
  EXPECT_EQ(t, sum);
  EXPECT_GT(t.migrated_keys, 0u);
  EXPECT_GT(t.origin_time_us, 0u);
  expect_flow_conservation(cluster);
}

TEST(Node, SnapshotReadsAllStatsConsistently) {
  Node node("node0", make_cache("LRU", 1ULL << 20));
  NodeStats s = node.snapshot();
  EXPECT_EQ(s.capacity_bytes, 1ULL << 20);
  EXPECT_EQ(s.used_bytes, 0u);
  EXPECT_EQ(s.requests, 0u);
  node.serve(Request{0, 1, 4096, -1}, hash64(1));
  node.serve(Request{1, 2, 8192, -1}, hash64(2));
  s = node.snapshot();
  EXPECT_EQ(s.capacity_bytes, 1ULL << 20);
  EXPECT_EQ(s.used_bytes, 4096u + 8192u);
  EXPECT_GT(s.metadata_bytes, 0u);
  // The serve calls booked their flow in the same critical section.
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.bytes_total, 12288u);
}

TEST(HotKeyTracker, ThresholdCrossingAndWindowMemory) {
  HotKeyTracker tracker(/*threshold=*/4, /*window=*/8);
  const std::uint64_t id = 42;
  const std::uint64_t h = hash64(id);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(tracker.observe_hashed(id, h), i);
    EXPECT_FALSE(tracker.hot_hashed(id, h, i));
  }
  EXPECT_EQ(tracker.observe_hashed(id, h), 4u);
  EXPECT_TRUE(tracker.hot_hashed(id, h, 4));

  // Fill the window with other traffic; after the roll the key's count
  // restarts at 1 but last window's hot set keeps it hot (no flicker).
  for (std::uint64_t other = 100; other < 104; ++other) {
    tracker.observe_hashed(other, hash64(other));
  }
  const std::uint32_t count = tracker.observe_hashed(id, h);
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(tracker.hot_hashed(id, h, count));
  // A key that was never hot is still cold.
  const std::uint64_t cold = 100;
  EXPECT_FALSE(tracker.hot_hashed(cold, hash64(cold), 1));

  EXPECT_THROW(HotKeyTracker(0, 8), std::invalid_argument);
  EXPECT_THROW(HotKeyTracker(4, 0), std::invalid_argument);
}

TEST(ClusterCache, RejectsInvalidConfigs) {
  {
    ClusterCacheConfig cfg;
    cfg.nodes = 0;
    EXPECT_THROW(ClusterCache{cfg}, std::invalid_argument);
  }
  {
    ClusterCacheConfig cfg;
    cfg.replicas = 0;
    EXPECT_THROW(ClusterCache{cfg}, std::invalid_argument);
  }
  {
    ClusterCacheConfig cfg;
    cfg.replicas = ClusterCache::kMaxReplicas + 1;
    EXPECT_THROW(ClusterCache{cfg}, std::invalid_argument);
  }
  {
    ClusterCacheConfig cfg;
    cfg.backing = "carrier-pigeon";
    EXPECT_THROW(ClusterCache{cfg}, std::invalid_argument);
  }
  {
    ClusterCacheConfig cfg;
    cfg.schedule = {{100, MembershipEvent::Kind::kJoin, 0},
                    {50, MembershipEvent::Kind::kLeave, 0}};
    EXPECT_THROW(ClusterCache{cfg}, std::invalid_argument);
  }
  ClusterCacheConfig cfg;
  cfg.policy = "LRU";
  cfg.nodes = 2;
  const ClusterCache cluster(cfg);
  EXPECT_EQ(cluster.name(), "cluster(LRU)");
}

}  // namespace
}  // namespace cdn::cluster
