// Tests for cluster::ClusterCache (src/cluster): single-node exact
// equivalence with the unsharded policy, the hash-once-per-request
// discipline (pinned with counting fake nodes), per-node flow
// conservation (hits + peer fills + origin fetches == requests), the
// replication-knob contract (peer fill only re-attributes miss bytes,
// never changes a hit/miss outcome), replica-set consistency, join/leave
// warm-transfer rebalancing with structural audits, deterministic
// schedule-driven churn pinned to literal counters, client-side counters
// matching the totals, exact per-node sums under concurrent drivers, the
// prefetch hint's forwarding and try-lock, and TSan-level thread safety of
// concurrent access, hints and snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_cache.hpp"
#include "cluster/topology.hpp"
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

/// Per-node and cluster flow conservation, and the nodes summing to the
/// totals. Origin fetches are derived (misses minus peer fills), so
/// conservation holds by construction; the literal churn pins below are
/// the proof that the derived counts equal the ones a node would book, and
/// PeerFillsAreBookedOnTheNodeThatMissed checks the booked peer fills
/// against the probes that found the object.
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
  // The fakes never hold anything: every miss went to the origin.
  EXPECT_EQ(t.origin_fetches, kRequests);
}

TEST(ClusterCache, HintForwardsTheHashOnceToThePrimaryOwner) {
  // prefetch() and prefetch_hashed() reach the id's primary ring owner once,
  // through the node policy's prefetch_hashed with h == hash64(id), and
  // nothing else: no access, no residency probe, no plain prefetch, and
  // not a counter booked. Every key is hot here, so a hint that followed
  // the request's spread would show on the second owner.
  using fakes::CountingFake;
  constexpr std::size_t kNodes = 4;
  std::array<CountingFake::Counters, kNodes> counters;
  ClusterCacheConfig cfg;
  cfg.nodes = kNodes;
  cfg.replicas = 2;
  cfg.replicate_hot = true;
  cfg.hot_threshold = 1;
  cfg.hot_window = 1 << 20;
  ClusterCache cluster(cfg, [&counters](std::uint64_t capacity,
                                        std::size_t node) {
    return std::make_unique<CountingFake>(capacity, &counters.at(node));
  });
  const auto sum = [&counters](auto field) {
    std::uint64_t total = 0;
    for (const CountingFake::Counters& c : counters) total += (c.*field).load();
    return total;
  };

  // A thread hints only after a run of requests no other driver shared.
  Request req;
  req.size = 100;
  for (std::uint64_t id = 0; id < 8; ++id) {
    req.id = id;
    cluster.access(req);
  }
  const std::uint64_t accesses = sum(&CountingFake::Counters::access_hashed);
  const std::uint64_t probes = sum(&CountingFake::Counters::contains_hashed);
  const ClusterTotals totals = cluster.totals();
  const std::vector<ClusterNodeStats> nodes = cluster.node_stats();

  constexpr std::uint64_t kHints = 200;
  for (std::uint64_t id = 0; id < kHints; ++id) {
    CountingFake::Counters& owner = counters.at(cluster.owners_of(id).front());
    const std::uint64_t before = owner.prefetch_hashed.load();
    if (id % 2 == 0) {
      cluster.prefetch(id);
    } else {
      cluster.prefetch_hashed(id, hash64(id));
    }
    EXPECT_EQ(owner.prefetch_hashed.load(), before + 1) << "id " << id;
  }
  EXPECT_EQ(sum(&CountingFake::Counters::prefetch_hashed), kHints);
  EXPECT_EQ(sum(&CountingFake::Counters::unhashed_prefetch), 0u);
  EXPECT_EQ(sum(&CountingFake::Counters::access_hashed), accesses);
  EXPECT_EQ(sum(&CountingFake::Counters::contains_hashed), probes);
  EXPECT_EQ(sum(&CountingFake::Counters::unhashed), 0u);
  EXPECT_EQ(sum(&CountingFake::Counters::bad_hash), 0u);
  EXPECT_EQ(cluster.totals(), totals);
  const std::vector<ClusterNodeStats> after = cluster.node_stats();
  ASSERT_EQ(after.size(), nodes.size());
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    EXPECT_EQ(after[n].shard, nodes[n].shard) << "node " << n;
  }

  // A thread that has served no request of its own gives no hint.
  std::thread([&cluster] { cluster.prefetch(3); }).join();
  EXPECT_EQ(sum(&CountingFake::Counters::prefetch_hashed), kHints);
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

/// One driver through a churning 4-node SCIP cluster on the flash
/// stressor: node 4 joins at 40% of the trace and node 0 leaves at 70%.
std::unique_ptr<ClusterCache> run_pinned_churn(bool replicate_hot) {
  const Trace trace =
      stress::make_stressed_trace(stress::make_stress_scenario("flash", 0.02));
  ClusterCacheConfig cfg;
  cfg.policy = "SCIP";
  cfg.capacity_bytes = 32ULL << 20;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.replicate_hot = replicate_hot;
  cfg.hot_threshold = 16;
  cfg.hot_window = 4096;
  const auto n = static_cast<std::uint64_t>(trace.requests.size());
  cfg.schedule = {{n * 4 / 10, MembershipEvent::Kind::kJoin, 0},
                  {n * 7 / 10, MembershipEvent::Kind::kLeave, 0}};
  auto cluster = std::make_unique<ClusterCache>(cfg);
  for (const Request& req : trace.requests) cluster->access(req);
  return cluster;
}

struct NodePin {
  bool live;
  std::uint64_t requests, hits, bytes_total, bytes_hit, peer_fills,
      peer_fill_bytes, origin_fetches, origin_bytes, migrated_in_keys,
      migrated_in_bytes;
};

template <std::size_t N>
void expect_node_pins(const ClusterCache& cluster,
                      const NodePin (&pins)[N]) {
  const std::vector<ClusterNodeStats> nodes = cluster.node_stats();
  ASSERT_EQ(nodes.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    const ClusterNodeStats& ns = nodes[i];
    const NodePin& pin = pins[i];
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
}

TEST(ClusterCache, PinnedChurnCountersAreBitwiseStable) {
  // Peer fill on, pinned to literal counters. Run-twice equality (above)
  // cannot see a change that shifts every run alike — a membership event
  // firing one request later, or a fill booked to the wrong node — this
  // can.
  const auto owned = run_pinned_churn(/*replicate_hot=*/true);
  const ClusterCache& cluster = *owned;
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.requests, 20000u);
  EXPECT_EQ(t.hits, 5024u);
  EXPECT_EQ(t.bytes_total, 914802198u);
  EXPECT_EQ(t.bytes_hit, 198503716u);
  EXPECT_EQ(t.peer_fills, 77u);
  EXPECT_EQ(t.peer_fill_bytes, 3029517u);
  EXPECT_EQ(t.origin_fetches, 14899u);
  EXPECT_EQ(t.origin_bytes, 713268965u);
  EXPECT_EQ(t.migrated_keys, 374u);
  EXPECT_EQ(t.migrated_bytes, 16961878u);
  EXPECT_EQ(t.hot_spread_requests, 1951u);

  // Node 0 left at 70%; node 4 joined at 40%.
  const NodePin kPins[] = {
      {false, 4177, 1421, 196601903, 61469127, 25, 626259, 2731, 134506517,
       0, 0},
      {true, 4020, 671, 190712376, 34579193, 20, 1422989, 3329, 154710194,
       59, 2923366},
      {true, 4368, 965, 178533936, 33884649, 4, 89731, 3399, 144559556,
       39, 1494539},
      {true, 4592, 1259, 227053514, 45216612, 19, 607688, 3314, 181229214,
       56, 2396760},
      {true, 2843, 708, 121900469, 23354135, 9, 282850, 2126, 98263484,
       220, 10147213},
  };
  expect_node_pins(cluster, kPins);
  expect_flow_conservation(cluster);
}

TEST(ClusterCache, PinnedChurnCountersWithoutPeerFillAreBitwiseStable) {
  // The same run with peer fill off: every miss is an origin fetch. Hits,
  // bytes, migrations and spreading equal the peer-fill run's (the knob
  // only re-attributes miss bytes); the fills move to the origin.
  const auto owned = run_pinned_churn(/*replicate_hot=*/false);
  const ClusterCache& cluster = *owned;
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.requests, 20000u);
  EXPECT_EQ(t.hits, 5024u);
  EXPECT_EQ(t.bytes_total, 914802198u);
  EXPECT_EQ(t.bytes_hit, 198503716u);
  EXPECT_EQ(t.peer_fills, 0u);
  EXPECT_EQ(t.peer_fill_bytes, 0u);
  EXPECT_EQ(t.origin_fetches, 14976u);
  EXPECT_EQ(t.origin_bytes, 716298482u);
  EXPECT_EQ(t.migrated_keys, 374u);
  EXPECT_EQ(t.migrated_bytes, 16961878u);
  EXPECT_EQ(t.hot_spread_requests, 1951u);

  const NodePin kPins[] = {
      {false, 4177, 1421, 196601903, 61469127, 0, 0, 2756, 135132776,
       0, 0},
      {true, 4020, 671, 190712376, 34579193, 0, 0, 3349, 156133183,
       59, 2923366},
      {true, 4368, 965, 178533936, 33884649, 0, 0, 3403, 144649287,
       39, 1494539},
      {true, 4592, 1259, 227053514, 45216612, 0, 0, 3333, 181836902,
       56, 2396760},
      {true, 2843, 708, 121900469, 23354135, 0, 0, 2135, 98546334,
       220, 10147213},
  };
  expect_node_pins(cluster, kPins);
  expect_flow_conservation(cluster);
}

/// Which node served the last miss, and the peer fills the probes found,
/// per node that missed. One driver only: a request's probes follow its
/// miss with no other request in between.
struct ProbeLedger {
  std::size_t last_miss_node = 0;
  std::uint64_t last_miss_size = 0;
  std::vector<std::uint64_t> fills, fill_bytes;
};

/// A SCIP node that tells the ledger about its misses and about every
/// contains_hashed probe that finds the object, as perfbench's TimedCache
/// counts them.
class ProbeCountingScip final : public Cache {
 public:
  ProbeCountingScip(std::uint64_t capacity, std::size_t node,
                    ProbeLedger* ledger)
      : Cache(capacity),
        inner_(make_cache("SCIP", capacity, 1 + node)),
        node_(node),
        ledger_(ledger) {
    if (ledger_->fills.size() <= node_) {
      ledger_->fills.resize(node_ + 1);
      ledger_->fill_bytes.resize(node_ + 1);
    }
  }

  [[nodiscard]] std::string name() const override { return "probe-scip"; }
  bool access(const Request& req) override {
    return access_hashed(req, hash64(req.id));
  }
  bool access_hashed(const Request& req, std::uint64_t h) override {
    const bool hit = inner_->access_hashed(req, h);
    if (!hit) {
      ledger_->last_miss_node = node_;
      ledger_->last_miss_size = req.size;
    }
    return hit;
  }
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return inner_->contains(id);
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    const bool found = inner_->contains_hashed(id, h);
    if (found) {
      ++ledger_->fills[ledger_->last_miss_node];
      ledger_->fill_bytes[ledger_->last_miss_node] += ledger_->last_miss_size;
    }
    return found;
  }
  bool for_each_resident(const std::function<bool(std::uint64_t,
                                                  std::uint64_t)>& fn)
      const override {
    return inner_->for_each_resident(fn);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }

 private:
  CachePtr inner_;
  std::size_t node_;
  ProbeLedger* ledger_;
};

TEST(ClusterCache, PeerFillsAreBookedOnTheNodeThatMissed) {
  // The pinned churn run's setup, counted from outside the cluster: every
  // probe that found the object is one peer fill, booked on the node whose
  // miss sent it.
  const Trace trace =
      stress::make_stressed_trace(stress::make_stress_scenario("flash", 0.02));
  ClusterCacheConfig cfg;
  cfg.capacity_bytes = 32ULL << 20;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.hot_threshold = 16;
  cfg.hot_window = 4096;
  const auto n = static_cast<std::uint64_t>(trace.requests.size());
  cfg.schedule = {{n * 4 / 10, MembershipEvent::Kind::kJoin, 0},
                  {n * 7 / 10, MembershipEvent::Kind::kLeave, 0}};
  ProbeLedger ledger;
  ClusterCache cluster(cfg, [&ledger](std::uint64_t capacity,
                                      std::size_t node) -> CachePtr {
    return std::make_unique<ProbeCountingScip>(capacity, node, &ledger);
  });
  for (const Request& req : trace.requests) cluster.access(req);

  const std::vector<ClusterNodeStats> nodes = cluster.node_stats();
  ASSERT_EQ(ledger.fills.size(), nodes.size());
  std::uint64_t probed_fills = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(nodes[i].shard.peer_fills, ledger.fills[i]);
    EXPECT_EQ(nodes[i].shard.peer_fill_bytes, ledger.fill_bytes[i]);
    probed_fills += ledger.fills[i];
  }
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.peer_fills, probed_fills);
  EXPECT_GT(t.peer_fills, 0u);
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
  // Requests and peer fills are booked under the node locks, in separate
  // critical sections, while a join() races the drivers. Afterwards every
  // total must be exactly the sum of the node records.
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
    sum.migrated_keys += ns.migrated_in_keys;
    sum.migrated_bytes += ns.migrated_in_bytes;
  }
  sum.hot_spread_requests = t.hot_spread_requests;  // not a node counter
  EXPECT_EQ(t.requests, n);
  EXPECT_EQ(t, sum);
  EXPECT_GT(t.migrated_keys, 0u);
  EXPECT_GT(t.origin_fetches, 0u);
  EXPECT_GT(t.peer_fills, 0u);
  expect_flow_conservation(cluster);
}

/// An LRU node that records the largest Request::time it served (tests
/// carry the trace index there). Its calls run under the node's lock, so
/// the relaxed load-then-store never races another update.
class MaxTimeLru final : public Cache {
 public:
  MaxTimeLru(std::uint64_t capacity, std::atomic<std::int64_t>* max_time)
      : Cache(capacity),
        inner_(make_cache("LRU", capacity)),
        max_time_(max_time) {}

  [[nodiscard]] std::string name() const override { return "max-time-lru"; }
  bool access(const Request& req) override {
    return access_hashed(req, hash64(req.id));
  }
  bool access_hashed(const Request& req, std::uint64_t h) override {
    if (req.time > max_time_->load(std::memory_order_relaxed)) {
      max_time_->store(req.time, std::memory_order_relaxed);
    }
    return inner_->access_hashed(req, h);
  }
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return inner_->contains(id);
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    return inner_->contains_hashed(id, h);
  }
  bool for_each_resident(const std::function<bool(std::uint64_t,
                                                  std::uint64_t)>& fn)
      const override {
    return inner_->for_each_resident(fn);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }

 private:
  CachePtr inner_;
  std::atomic<std::int64_t>* max_time_;
};

TEST(ClusterCache, ScheduledEventsPrecedeTheirIndexUnderConcurrency) {
  // A scheduled leave(0) at request index n/2 with four drivers. Requests
  // [0, n/2) run first and [n/2, n) after a join of the drivers, so a
  // request's trace index and its cluster index fall on the same side of
  // n/2. Every second-half driver then races the one that fires the leave
  // and must route on the post-leave ring: node 0 may serve no request
  // from the second half.
  Trace trace = generate_trace(small_spec(17));
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    trace.requests[i].time = static_cast<std::int64_t>(i);
  }
  const std::size_t n = trace.requests.size();
  ClusterCacheConfig cfg;
  cfg.capacity_bytes = kCap;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.hot_threshold = 8;
  cfg.hot_window = 2048;
  cfg.schedule = {{n / 2, MembershipEvent::Kind::kLeave, 0}};
  constexpr std::size_t kNodes = 4;
  std::atomic<std::int64_t> max_time[kNodes];
  for (auto& m : max_time) m.store(-1);
  ClusterCache cluster(cfg, [&max_time](std::uint64_t capacity,
                                        std::size_t node) -> CachePtr {
    return std::make_unique<MaxTimeLru>(capacity, &max_time[node]);
  });

  constexpr std::size_t kDrivers = 4;
  const auto drive = [&cluster, &trace](std::size_t begin, std::size_t end) {
    std::vector<std::thread> drivers;
    for (std::size_t d = 0; d < kDrivers; ++d) {
      drivers.emplace_back([&cluster, &trace, begin, end, d] {
        for (std::size_t i = begin + d; i < end; i += kDrivers) {
          cluster.access(trace.requests[i]);
        }
      });
    }
    for (auto& t : drivers) t.join();
  };
  drive(0, n / 2);
  ASSERT_EQ(cluster.live_node_count(), kNodes);
  drive(n / 2, n);

  EXPECT_EQ(cluster.live_node_count(), kNodes - 1);
  const auto leave_at = static_cast<std::int64_t>(n / 2);
  EXPECT_GE(max_time[0].load(), 0);  // node 0 served the first half
  EXPECT_LT(max_time[0].load(), leave_at);
  for (std::size_t node = 1; node < kNodes; ++node) {
    EXPECT_GE(max_time[node].load(), leave_at) << "node " << node;
  }
  EXPECT_EQ(cluster.totals().requests, n);
  expect_flow_conservation(cluster);
}

/// A SCIP node that counts the hints that reach it and forwards every call.
class HintCountingScip final : public Cache {
 public:
  HintCountingScip(std::uint64_t capacity, std::uint64_t seed,
                   std::atomic<std::uint64_t>* hints)
      : Cache(capacity),
        inner_(make_cache("SCIP", capacity, seed)),
        hints_(hints) {}

  [[nodiscard]] std::string name() const override { return "hint-count"; }
  bool access(const Request& req) override { return inner_->access(req); }
  bool access_hashed(const Request& req, std::uint64_t h) override {
    return inner_->access_hashed(req, h);
  }
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return inner_->contains(id);
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    return inner_->contains_hashed(id, h);
  }
  void prefetch_hashed(std::uint64_t id,
                       std::uint64_t h) const noexcept override {
    hints_->fetch_add(1, std::memory_order_relaxed);
    inner_->prefetch_hashed(id, h);
  }
  bool for_each_resident(const std::function<bool(std::uint64_t,
                                                  std::uint64_t)>& fn)
      const override {
    return inner_->for_each_resident(fn);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }

 private:
  CachePtr inner_;
  std::atomic<std::uint64_t>* hints_;
};

TEST(ClusterCache, HintsRaceRoutePublicationsRaceFree) {
  // TSan coverage of the hint path: four threads hint a churning SCIP
  // cluster while two of them drive the flash trace and fire scheduled
  // joins and leaves, so hints read routes while new ones are published
  // and take node locks that requests and migrations also take. Each
  // thread first serves a few requests with no other driver active, so
  // its hints pass the solo-run gate; the two hint-only threads keep that
  // run and hint throughout. The drivers hint like simulate(), 8 of their
  // requests ahead. A second pass runs four threads that hint and access
  // a striped Topology, whose hints take no gate.
  const Trace trace =
      stress::make_stressed_trace(stress::make_stress_scenario("flash", 0.02));
  const std::size_t n = trace.requests.size();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kDrivers = 2;
  constexpr std::size_t kSoloRequests = 8;
  constexpr std::size_t kWarm = kThreads * kSoloRequests;
  ClusterCacheConfig cfg;
  cfg.capacity_bytes = 32ULL << 20;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.hot_threshold = 16;
  cfg.hot_window = 4096;
  const auto at = [n](std::size_t tenths) {
    return static_cast<std::uint64_t>(n * tenths / 10);
  };
  cfg.schedule = {{at(2), MembershipEvent::Kind::kJoin, 0},
                  {at(4), MembershipEvent::Kind::kLeave, 0},
                  {at(6), MembershipEvent::Kind::kJoin, 0},
                  {at(8), MembershipEvent::Kind::kLeave, 1}};
  std::atomic<std::uint64_t> hints{0};
  ClusterCache cluster(cfg, [&hints](std::uint64_t capacity,
                                     std::size_t node) -> CachePtr {
    return std::make_unique<HintCountingScip>(capacity, 1 + node, &hints);
  });

  std::atomic<std::size_t> turn{0};
  std::atomic<std::size_t> drivers_left{kDrivers};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (turn.load() != t) std::this_thread::yield();
      for (std::size_t i = t * kSoloRequests; i < (t + 1) * kSoloRequests;
           ++i) {
        cluster.access(trace.requests[i]);
      }
      turn.fetch_add(1);
      while (turn.load() != kThreads) std::this_thread::yield();
      if (t < kDrivers) {
        for (std::size_t i = kWarm + t; i < n; i += kDrivers) {
          const std::size_t ahead = i + 8 * kDrivers;
          if (ahead < n) cluster.prefetch(trace.requests[ahead].id);
          cluster.access(trace.requests[i]);
        }
        drivers_left.fetch_sub(1);
        return;
      }
      for (std::size_t i = kWarm; drivers_left.load() > 0; ++i) {
        const std::uint64_t id = trace.requests[kWarm + i % (n - kWarm)].id;
        if (i % 2 == 0) {
          cluster.prefetch(id);
        } else {
          cluster.prefetch_hashed(id, hash64(id));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(hints.load(), 0u);
  EXPECT_EQ(cluster.totals().requests, n);
  EXPECT_EQ(cluster.node_count(), 6u);
  EXPECT_EQ(cluster.live_node_count(), 4u);
  expect_flow_conservation(cluster);

  std::atomic<std::uint64_t> striped_hints{0};
  Topology striped_nodes(striped(
      32ULL << 20, 4,
      [&striped_hints](std::uint64_t capacity, std::size_t i) -> CachePtr {
        return std::make_unique<HintCountingScip>(capacity, 1 + i,
                                                  &striped_hints);
      }));
  threads.clear();
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&striped_nodes, &trace, n, t] {
      for (std::size_t i = t; i < n; i += kThreads) {
        const std::size_t ahead = i + 8 * kThreads;
        if (ahead < n) striped_nodes.prefetch(trace.requests[ahead].id);
        striped_nodes.access(trace.requests[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(striped_hints.load(), 0u);
  EXPECT_EQ(striped_nodes.tier_stats(0).requests, n);
}

TEST(Node, HintRunsOnlyWhenTheLockIsFree) {
  // The hint is a try-lock: while another thread holds the node's lock it
  // does nothing, and once the lock is free it reaches the policy once.
  fakes::CountingFake::Counters counters;
  Node node("n", std::make_unique<fakes::CountingFake>(1 << 20, &counters));
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&node, &held, &release] {
    node.with_cache([&held, &release](Cache&) {
      held.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!held.load()) std::this_thread::yield();
  node.prefetch_hashed(5, hash64(5));
  EXPECT_EQ(counters.prefetch_hashed.load(), 0u);
  release.store(true);
  holder.join();
  node.prefetch_hashed(5, hash64(5));
  EXPECT_EQ(counters.prefetch_hashed.load(), 1u);
  EXPECT_EQ(counters.bad_hash.load(), 0u);
  EXPECT_EQ(node.snapshot().requests, 0u);
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
  EXPECT_EQ(s.peer_fills, 0u);
  EXPECT_EQ(s.origin_fetches, 0u);
  // A peer fill lands in the same record; the node books no origin fetch,
  // its caller derives them from the misses the peers did not fill.
  node.record_peer_fill(8192);
  EXPECT_FALSE(node.serve(Request{2, 3, 1000, -1}, hash64(3)));
  EXPECT_TRUE(node.serve(Request{3, 3, 1000, -1}, hash64(3)));
  s = node.snapshot();
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.bytes_total, 14288u);
  EXPECT_EQ(s.bytes_hit, 1000u);
  EXPECT_EQ(s.peer_fills, 1u);
  EXPECT_EQ(s.peer_fill_bytes, 8192u);
  EXPECT_EQ(s.origin_fetches, 0u);
  EXPECT_EQ(s.origin_bytes, 0u);
  s.derive_origin_fetches();
  EXPECT_EQ(s.origin_fetches, 2u);
  EXPECT_EQ(s.origin_bytes, 4096u + 1000u);
  EXPECT_EQ(s.requests, s.hits + s.peer_fills + s.origin_fetches);
}

TEST(HotKeyTracker, ThresholdCrossingAndWindowMemory) {
  HotKeyTracker tracker(/*threshold=*/4, /*window=*/8);
  const std::uint64_t id = 42;
  const std::uint64_t h = hash64(id);
  std::uint64_t idx = 0;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const HotKeyTracker::Observation seen =
        tracker.observe_hashed(id, h, idx++);
    EXPECT_EQ(seen.count, i);
    EXPECT_FALSE(seen.hot);
  }
  HotKeyTracker::Observation seen = tracker.observe_hashed(id, h, idx++);
  EXPECT_EQ(seen.count, 4u);
  EXPECT_TRUE(seen.hot);

  // Fill the window with other traffic; after the roll the key's count
  // restarts at 1 but last window's hot set keeps it hot (no flicker).
  for (std::uint64_t other = 100; other < 104; ++other) {
    tracker.observe_hashed(other, hash64(other), idx++);
  }
  seen = tracker.observe_hashed(id, h, idx++);
  EXPECT_EQ(seen.count, 1u);
  EXPECT_TRUE(seen.hot);
  // A key that was never hot is still cold.
  const std::uint64_t cold = 100;
  seen = tracker.observe_hashed(cold, hash64(cold), idx++);
  EXPECT_EQ(seen.count, 1u);
  EXPECT_FALSE(seen.hot);

  EXPECT_THROW(HotKeyTracker(0, 8), std::invalid_argument);
  EXPECT_THROW(HotKeyTracker(4, 0), std::invalid_argument);
}

TEST(HotKeyTracker, JumpOfTwoWindowsForgetsTheHotSet) {
  // A shard untouched for a whole window rolls twice on its next touch:
  // the window in between had no hot key, so nothing stays hot.
  HotKeyTracker tracker(/*threshold=*/2, /*window=*/8);
  const std::uint64_t id = 7;
  const std::uint64_t h = hash64(id);
  tracker.observe_hashed(id, h, 0);
  ASSERT_TRUE(tracker.observe_hashed(id, h, 1).hot);
  // One window later the key is still hot from window 0.
  EXPECT_TRUE(tracker.observe_hashed(id, h, 8).hot);
  // Window 1 saw it once (not hot), so window 2 forgets it...
  EXPECT_FALSE(tracker.observe_hashed(id, h, 16).hot);
  // ...and a key hot in window 3 is cold again after a jump to window 5.
  tracker.observe_hashed(id, h, 24);
  ASSERT_TRUE(tracker.observe_hashed(id, h, 25).hot);
  const HotKeyTracker::Observation seen = tracker.observe_hashed(id, h, 40);
  EXPECT_EQ(seen.count, 1u);
  EXPECT_FALSE(seen.hot);
}

/// The single global-window tracker the sharded one replaced: one count
/// table and hot sets, rolled after every `window` observations.
class GlobalWindowTracker {
 public:
  GlobalWindowTracker(std::uint32_t threshold, std::uint64_t window)
      : threshold_(threshold), window_(window) {}

  HotKeyTracker::Observation observe(std::uint64_t id) {
    if (observed_ == window_) {
      prev_hot_ = std::move(cur_hot_);
      cur_hot_.clear();
      counts_.clear();
      observed_ = 0;
    }
    ++observed_;
    const std::uint32_t count = ++counts_[id];
    if (count == threshold_) cur_hot_.insert(id);
    return {count, count >= threshold_ || prev_hot_.count(id) != 0};
  }

 private:
  std::uint32_t threshold_;
  std::uint64_t window_;
  std::uint64_t observed_ = 0;
  std::map<std::uint64_t, std::uint32_t> counts_;
  std::set<std::uint64_t> cur_hot_;
  std::set<std::uint64_t> prev_hot_;
};

TEST(HotKeyTracker, LazyShardRollMatchesGlobalWindow) {
  // With one driver, shards that roll lazily on their next touch must
  // give every request the count and verdict of one global window.
  const Trace trace =
      stress::make_stressed_trace(stress::make_stress_scenario("flash", 0.2));
  constexpr std::size_t kRequests = 200'000;
  ASSERT_GE(trace.requests.size(), kRequests);
  HotKeyTracker sharded(/*threshold=*/32, /*window=*/4096);
  GlobalWindowTracker global(/*threshold=*/32, /*window=*/4096);
  std::size_t hot = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::uint64_t id = trace.requests[i].id;
    const HotKeyTracker::Observation got =
        sharded.observe_hashed(id, hash64(id), i);
    const HotKeyTracker::Observation want = global.observe(id);
    ASSERT_EQ(got.count, want.count) << "request " << i;
    ASSERT_EQ(got.hot, want.hot) << "request " << i;
    hot += got.hot ? 1 : 0;
  }
  // The flash crowd makes keys hot, so the verdicts were exercised.
  EXPECT_GT(hot, 0u);
  EXPECT_LT(hot, kRequests);
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
  for (const std::string backing : {"carrier-pigeon", "null"}) {
    ClusterCacheConfig cfg;
    cfg.backing = backing;
    EXPECT_THROW(ClusterCache{cfg}, std::invalid_argument) << backing;
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
