// Parameterized invariant suite: every registered policy must uphold the
// basic cache contract on a realistic workload —
//   * never exceed its byte capacity,
//   * report contains() consistently with admissions,
//   * enumerate (for_each_resident) exactly the ids contains() reports,
//     whose sizes sum to used_bytes(),
//   * be deterministic for a fixed seed,
//   * produce hit counts bounded by requests,
//   * behave identically through the hashed and the plain entry points,
//   * treat prefetch hints as advisory: a hinted replay equals an unhinted
//     one bitwise,
//   * survive pathological inputs (oversized objects, capacity 1, repeats).
// The policy set is the registry's, so a new policy cannot skip the suite.
// The capacity, hashed-path, determinism and hint contracts run again on
// every policy wrapped as a one-tier, 4-node cluster::Topology and as a
// 4-node cluster::ClusterCache with a low hot threshold (hot-key spreading,
// peer probes and the peer-fill booking all run): each wrapper must keep
// its nodes' contracts. The wrapper cases and the hint cases replay a
// prefix of the shared trace; ClusterWrapper.ShortTraceRunsEveryRequestPath
// shows that the prefix still takes every wrapper path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_cache.hpp"
#include "cluster/topology.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/oracle.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

/// Requests of the wrapper cases' trace: a prefix of the shared trace.
/// ClusterWrapper.ShortTraceRunsEveryRequestPath shows that it still
/// reaches every path the wrappers have.
constexpr std::size_t kWrapperRequests = 8000;

/// The 0.03-scale CDN-T trace (30000 requests), annotated for Belady.
const Trace& shared_trace() {
  static const Trace t = [] {
    Trace tr = generate_trace(cdn_t_like(0.03));
    annotate_next_access(tr);  // Belady & friends need it
    return tr;
  }();
  return t;
}

/// The first kWrapperRequests requests of shared_trace(), annotations
/// kept: the wrappers run every policy on four nodes, and the sanitizer
/// builds pay for each request several times over.
const Trace& short_trace() {
  static const Trace t = [] {
    Trace tr;
    tr.name = shared_trace().name;
    tr.requests.assign(shared_trace().requests.begin(),
                       shared_trace().requests.begin() + kWrapperRequests);
    return tr;
  }();
  return t;
}

class PolicyInvariants : public ::testing::TestWithParam<std::string> {};

/// Builds a cache of (policy, capacity, seed).
using Factory = std::function<CachePtr(const std::string&, std::uint64_t,
                                       std::uint64_t)>;

CachePtr plain(const std::string& policy, std::uint64_t capacity,
               std::uint64_t seed) {
  return make_cache(policy, capacity, seed);
}

/// `policy` over four salt-0 nodes sharing `capacity`, node i seeded
/// seed + i.
CachePtr one_tier(const std::string& policy, std::uint64_t capacity,
                  std::uint64_t seed) {
  return std::make_unique<cluster::Topology>(cluster::striped(
      capacity, 4, [&](std::uint64_t share, std::size_t i) {
        return make_cache(policy, share, seed + i);
      }));
}

/// `policy` behind a 4-node consistent-hash cluster sharing `capacity`,
/// node i seeded seed + i. Keys requested 4 times in a 4096-request window
/// are hot: spread over 2 owners, whose misses probe the other owner.
CachePtr cluster4(const std::string& policy, std::uint64_t capacity,
                  std::uint64_t seed) {
  cluster::ClusterCacheConfig cfg;
  cfg.policy = policy;
  cfg.capacity_bytes = capacity;
  cfg.nodes = 4;
  cfg.replicas = 2;
  cfg.replicate_hot = true;
  cfg.hot_threshold = 4;
  cfg.hot_window = 4096;
  cfg.seed = seed;
  return std::make_unique<cluster::ClusterCache>(cfg);
}

void capacity_never_exceeded(const Trace& t, const std::string& policy,
                             const Factory& make) {
  const std::uint64_t cap = 64ULL << 20;
  auto cache = make(policy, cap, 1);
  for (std::size_t i = 0; i < t.size(); ++i) {
    cache->access(t[i]);
    if (i % 1024 == 0) {
      ASSERT_LE(cache->used_bytes(), cap) << "at request " << i;
    }
  }
  EXPECT_LE(cache->used_bytes(), cap);
}

void deterministic_for_fixed_seed(const Trace& t, const std::string& policy,
                                  const Factory& make) {
  auto a = make(policy, 32ULL << 20, /*seed=*/5);
  auto b = make(policy, 32ULL << 20, /*seed=*/5);
  const auto ra = simulate(*a, t);
  const auto rb = simulate(*b, t);
  EXPECT_EQ(ra.hits, rb.hits);
  EXPECT_EQ(ra.bytes_hit, rb.bytes_hit);
}

void hashed_path_matches_plain(const Trace& t, const std::string& policy,
                               const Factory& make) {
  // access_hashed / contains_hashed with h == hash64(id) must behave
  // exactly like access / contains (sim/cache.hpp): two same-seed caches,
  // one driven through each path, agree on every request.
  auto plain_path = make(policy, 32ULL << 20, /*seed=*/5);
  auto hashed = make(policy, 32ULL << 20, /*seed=*/5);
  const std::size_t n = std::min<std::size_t>(t.size(), 60000);
  for (std::size_t i = 0; i < n; ++i) {
    const Request& req = t[i];
    ASSERT_EQ(plain_path->access(req),
              hashed->access_hashed(req, hash64(req.id)))
        << "hit differs at request " << i;
    // The object just accessed, and an older one that may have left.
    for (const std::uint64_t id : {req.id, t[i / 2].id}) {
      ASSERT_EQ(plain_path->contains(id),
                hashed->contains_hashed(id, hash64(id)))
          << "contains(" << id << ") differs at request " << i;
    }
  }
  EXPECT_EQ(plain_path->used_bytes(), hashed->used_bytes());
}

/// What a replay leaves observable, node by node for the wrappers: each
/// node's residents in for_each_resident order (and whether it
/// enumerates) and its NodeStats, and a cluster's totals.
struct Observed {
  std::uint64_t hits = 0;
  std::uint64_t bytes_hit = 0;
  std::uint64_t used_bytes = 0;
  std::uint64_t metadata_bytes = 0;
  std::vector<bool> enumerates;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> residents;
  std::vector<cluster::NodeStats> nodes;
  cluster::ClusterTotals totals;
};

void observe_residents(const Cache& c, Observed& out) {
  auto& list = out.residents.emplace_back();
  out.enumerates.push_back(
      c.for_each_resident([&list](std::uint64_t id, std::uint64_t size) {
        list.emplace_back(id, size);
        return true;
      }));
}

/// Replays `t` through `cache`; with `hint`, before each access it hints
/// the request 8 ahead through prefetch() and the one 4 ahead through
/// prefetch_hashed(), as simulate() and the concurrent layers do.
Observed replay(Cache& cache, const Trace& t, bool hint) {
  Observed out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (hint && i + 8 < t.size()) cache.prefetch(t[i + 8].id);
    if (hint && i + 4 < t.size()) {
      cache.prefetch_hashed(t[i + 4].id, hash64(t[i + 4].id));
    }
    if (cache.access(t[i])) {
      ++out.hits;
      out.bytes_hit += t[i].size;
    }
  }
  out.used_bytes = cache.used_bytes();
  out.metadata_bytes = cache.metadata_bytes();
  if (auto* cl = dynamic_cast<cluster::ClusterCache*>(&cache)) {
    for (std::uint32_t n = 0; n < cl->node_count(); ++n) {
      cl->with_node_cache(n, [&out](Cache& c) { observe_residents(c, out); });
    }
    for (const cluster::ClusterNodeStats& ns : cl->node_stats()) {
      out.nodes.push_back(ns.shard);
    }
    out.totals = cl->totals();
  } else if (auto* topo = dynamic_cast<cluster::Topology*>(&cache)) {
    for (std::size_t tier = 0; tier < topo->tier_count(); ++tier) {
      for (std::size_t n = 0; n < topo->node_count(tier); ++n) {
        topo->with_node_cache(tier, n,
                              [&out](Cache& c) { observe_residents(c, out); });
        out.nodes.push_back(topo->stats(tier, n));
      }
    }
  } else {
    observe_residents(cache, out);
  }
  return out;
}

void hints_are_advisory(const Trace& t, const std::string& policy,
                        const Factory& make) {
  // Cache::prefetch and prefetch_hashed MUST NOT change any decision: a
  // replay that hints every request ahead equals one that never hints.
  auto hinted = make(policy, 32ULL << 20, /*seed=*/5);
  auto unhinted = make(policy, 32ULL << 20, /*seed=*/5);
  const Observed a = replay(*hinted, t, /*hint=*/true);
  const Observed b = replay(*unhinted, t, /*hint=*/false);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.bytes_hit, b.bytes_hit);
  EXPECT_EQ(a.used_bytes, b.used_bytes);
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
  EXPECT_EQ(a.enumerates, b.enumerates);
  ASSERT_EQ(a.residents.size(), b.residents.size());
  for (std::size_t n = 0; n < a.residents.size(); ++n) {
    EXPECT_TRUE(a.residents[n] == b.residents[n])
        << "node " << n << ": resident order differs";
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n], b.nodes[n]) << "node " << n;
  }
  EXPECT_EQ(a.totals, b.totals);
}

TEST_P(PolicyInvariants, HintsAreAdvisory) {
  hints_are_advisory(short_trace(), GetParam(), plain);
}

TEST_P(PolicyInvariants, HintsAreAdvisoryInOneTierTopology) {
  hints_are_advisory(short_trace(), GetParam(), one_tier);
}

TEST_P(PolicyInvariants, HintsAreAdvisoryInCluster) {
  hints_are_advisory(short_trace(), GetParam(), cluster4);
}

TEST_P(PolicyInvariants, CapacityNeverExceeded) {
  capacity_never_exceeded(shared_trace(), GetParam(), plain);
}

TEST_P(PolicyInvariants, CapacityNeverExceededInOneTierTopology) {
  capacity_never_exceeded(short_trace(), GetParam(), one_tier);
}

TEST_P(PolicyInvariants, CapacityNeverExceededInCluster) {
  capacity_never_exceeded(short_trace(), GetParam(), cluster4);
}

TEST_P(PolicyInvariants, HitsBoundedAndRatiosValid) {
  const Trace& t = shared_trace();
  auto cache = make_cache(GetParam(), 64ULL << 20);
  const auto res = simulate(*cache, t);
  EXPECT_EQ(res.requests, t.size());
  EXPECT_LE(res.hits, res.requests);
  EXPECT_GE(res.object_miss_ratio(), 0.0);
  EXPECT_LE(res.object_miss_ratio(), 1.0);
  EXPECT_GE(res.byte_miss_ratio(), 0.0);
  EXPECT_LE(res.byte_miss_ratio(), 1.0);
}

TEST_P(PolicyInvariants, DeterministicForFixedSeed) {
  deterministic_for_fixed_seed(shared_trace(), GetParam(), plain);
}

TEST_P(PolicyInvariants, DeterministicForFixedSeedInOneTierTopology) {
  deterministic_for_fixed_seed(short_trace(), GetParam(), one_tier);
}

TEST_P(PolicyInvariants, DeterministicForFixedSeedInCluster) {
  deterministic_for_fixed_seed(short_trace(), GetParam(), cluster4);
}

TEST_P(PolicyInvariants, HashedPathMatchesPlain) {
  hashed_path_matches_plain(shared_trace(), GetParam(), plain);
}

TEST_P(PolicyInvariants, HashedPathMatchesPlainInOneTierTopology) {
  hashed_path_matches_plain(short_trace(), GetParam(), one_tier);
}

TEST_P(PolicyInvariants, HashedPathMatchesPlainInCluster) {
  hashed_path_matches_plain(short_trace(), GetParam(), cluster4);
}

TEST_P(PolicyInvariants, FirstAccessIsAlwaysAMiss) {
  auto cache = make_cache(GetParam(), 1ULL << 20);
  Request r{0, 12345, 100, Request::kNoNext};
  EXPECT_FALSE(cache->access(r));
}

TEST_P(PolicyInvariants, OversizedObjectBypasses) {
  auto cache = make_cache(GetParam(), 1000);
  Request big{0, 1, 5000, 1};
  EXPECT_FALSE(cache->access(big));
  EXPECT_FALSE(cache->contains(1));
  EXPECT_LE(cache->used_bytes(), 1000u);
}

TEST_P(PolicyInvariants, RepeatedSmallObjectEventuallyHits) {
  auto cache = make_cache(GetParam(), 1ULL << 20);
  // A single object hammered repeatedly must be a hit most of the time for
  // any reasonable policy.
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    Request r{i, 7, 100, i + 1};
    if (cache->access(r)) ++hits;
  }
  EXPECT_GT(hits, 150);
}

TEST_P(PolicyInvariants, TinyCapacitiesReturnAndHoldCapacity) {
  // Capacities 0, 1 and 2 bytes, with every third id one byte large so the
  // tiny caches do admit. Every access must return (a hang is a failure)
  // and capacity must hold after each one.
  const Trace& shared = shared_trace();
  std::vector<Request> reqs(shared.requests.begin(),
                            shared.requests.begin() +
                                std::min<std::size_t>(shared.size(), 4000));
  for (Request& r : reqs) {
    if (r.id % 3 == 0) r.size = 1;
  }
  for (const std::uint64_t cap : {0, 1, 2}) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    auto cache = make_cache(GetParam(), cap, 1);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      cache->access(reqs[i]);
      ASSERT_LE(cache->used_bytes(), cache->capacity()) << "at request " << i;
    }
  }
}

TEST_P(PolicyInvariants, StaleSizesKeepCapacityAndResidentBytes) {
  // An id's size changes between its requests (an object updated at the
  // origin). Capacity must hold after every access, and an enumerating
  // policy's resident sizes must still sum to used_bytes().
  const Trace& shared = shared_trace();
  std::vector<Request> reqs(shared.requests.begin(),
                            shared.requests.begin() +
                                std::min<std::size_t>(shared.size(), 20000));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].size = std::max<std::uint64_t>(1, reqs[i].size >> (i % 3));
  }
  for (const std::uint64_t cap : {64ULL << 10, 1ULL << 20, 8ULL << 20}) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    auto cache = make_cache(GetParam(), cap, 1);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      cache->access(reqs[i]);
      ASSERT_LE(cache->used_bytes(), cap) << "at request " << i;
    }
    std::uint64_t bytes = 0;
    const bool enumerated =
        cache->for_each_resident([&bytes](std::uint64_t, std::uint64_t size) {
          bytes += size;
          return true;
        });
    if (enumerated) {
      EXPECT_EQ(bytes, cache->used_bytes());
    }
  }
}

TEST_P(PolicyInvariants, ResidentsMatchContainsAndUsedBytes) {
  // A policy that cannot enumerate returns false and is exempt; every other
  // one lists each resident exactly once.
  const Trace& t = shared_trace();
  auto cache = make_cache(GetParam(), 32ULL << 20);
  for (const auto& r : t.requests) cache->access(r);
  std::vector<std::uint64_t> residents;
  std::uint64_t bytes = 0;
  const bool enumerated =
      cache->for_each_resident([&](std::uint64_t id, std::uint64_t size) {
        residents.push_back(id);
        bytes += size;
        return true;
      });
  if (!enumerated) return;
  for (const std::uint64_t id : residents) {
    EXPECT_TRUE(cache->contains(id)) << "enumerated id " << id;
  }
  std::sort(residents.begin(), residents.end());
  EXPECT_EQ(std::adjacent_find(residents.begin(), residents.end()),
            residents.end())
      << "an id was enumerated twice";
  for (const auto& r : t.requests) {
    if (cache->contains(r.id)) {
      EXPECT_TRUE(std::binary_search(residents.begin(), residents.end(), r.id))
          << "resident id " << r.id << " not enumerated";
    }
  }
  EXPECT_EQ(bytes, cache->used_bytes());
}

TEST_P(PolicyInvariants, MetadataReportedNonZeroAfterLoad) {
  const Trace& t = shared_trace();
  auto cache = make_cache(GetParam(), 32ULL << 20);
  for (std::size_t i = 0; i < std::min<std::size_t>(t.size(), 20000); ++i) {
    cache->access(t[i]);
  }
  EXPECT_GT(cache->metadata_bytes(), 0u);
}

/// An LRU node that counts its evictions: a miss of an object that fits
/// evicted something iff fewer bytes than before plus the object remain.
class EvictionCountingLru final : public Cache {
 public:
  EvictionCountingLru(std::uint64_t capacity, std::uint64_t* evictions)
      : Cache(capacity),
        inner_(make_cache("LRU", capacity)),
        evictions_(evictions) {}

  [[nodiscard]] std::string name() const override { return "LRU"; }
  bool access(const Request& req) override {
    return access_hashed(req, hash64(req.id));
  }
  bool access_hashed(const Request& req, std::uint64_t h) override {
    const std::uint64_t before = inner_->used_bytes();
    const bool hit = inner_->access_hashed(req, h);
    if (!hit && fits(req.size) && inner_->used_bytes() < before + req.size) {
      ++*evictions_;
    }
    return hit;
  }
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return inner_->contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }

 private:
  CachePtr inner_;
  std::uint64_t* evictions_;
};

TEST(ClusterWrapper, ShortTraceRunsEveryRequestPath) {
  // The wrapper cases above are only meaningful contract checks if their
  // trace takes every path, at both capacities they use: evictions in
  // every node of both wrappers; in the cluster, single-owner routing,
  // whose misses go to the origin, and hot-key spreading, whose misses
  // probe a peer and sometimes find the object there. (The tiny-capacity
  // and stale-size cases run bare policies and keep their 4000- and
  // 20000-request prefixes of the full trace.)
  const Trace& t = short_trace();
  ASSERT_EQ(t.size(), kWrapperRequests);
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ(t[i].id, shared_trace()[i].id) << "not a prefix at " << i;
  }
  for (const std::uint64_t cap : {32ULL << 20, 64ULL << 20}) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    std::uint64_t striped_evictions[4] = {};
    cluster::Topology striped(cluster::striped(
        cap, 4, [&striped_evictions](std::uint64_t share, std::size_t i) {
          return std::make_unique<EvictionCountingLru>(share,
                                                       &striped_evictions[i]);
        }));
    std::uint64_t ring_evictions[4] = {};
    cluster::ClusterCacheConfig cfg;
    cfg.capacity_bytes = cap;
    cfg.nodes = 4;
    cfg.replicas = 2;
    cfg.replicate_hot = true;
    cfg.hot_threshold = 4;
    cfg.hot_window = 4096;
    cluster::ClusterCache ring(
        cfg, [&ring_evictions](std::uint64_t share, std::size_t i) -> CachePtr {
          return std::make_unique<EvictionCountingLru>(share,
                                                       &ring_evictions[i]);
        });
    for (const Request& req : t.requests) {
      striped.access(req);
      ring.access(req);
    }
    for (std::size_t n = 0; n < 4; ++n) {
      EXPECT_GT(striped_evictions[n], 0u) << "striped node " << n;
      EXPECT_GT(ring_evictions[n], 0u) << "cluster node " << n;
    }
    const cluster::ClusterTotals totals = ring.totals();
    EXPECT_GT(totals.hot_spread_requests, 0u);
    EXPECT_LT(totals.hot_spread_requests, totals.requests);
    EXPECT_GT(totals.peer_fills, 0u);
    EXPECT_GT(totals.origin_fetches, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariants,
    ::testing::ValuesIn(all_policy_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cdn
