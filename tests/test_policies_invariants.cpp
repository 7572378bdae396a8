// Parameterized invariant suite: every registered policy must uphold the
// basic cache contract on a realistic workload —
//   * never exceed its byte capacity,
//   * report contains() consistently with admissions,
//   * enumerate (for_each_resident) exactly the ids contains() reports,
//     whose sizes sum to used_bytes(),
//   * be deterministic for a fixed seed,
//   * produce hit counts bounded by requests,
//   * behave identically through the hashed and the plain entry points,
//   * survive pathological inputs (oversized objects, capacity 1, repeats).
// The policy set is the registry's, so a new policy cannot skip the suite.
// The capacity, hashed-path and determinism contracts run again on every
// policy wrapped as a one-tier, 4-node cluster::Topology and as a 4-node
// cluster::ClusterCache with a low hot threshold (hot-key spreading, peer
// probes and the peer-fill booking all run): each wrapper must keep its
// nodes' contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
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

class PolicyInvariants : public ::testing::TestWithParam<std::string> {
 protected:
  static Trace& shared_trace() {
    static Trace t = [] {
      Trace tr = generate_trace(cdn_t_like(0.03));
      annotate_next_access(tr);  // Belady & friends need it
      return tr;
    }();
    return t;
  }
};

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

TEST_P(PolicyInvariants, CapacityNeverExceeded) {
  capacity_never_exceeded(shared_trace(), GetParam(), plain);
}

TEST_P(PolicyInvariants, CapacityNeverExceededInOneTierTopology) {
  capacity_never_exceeded(shared_trace(), GetParam(), one_tier);
}

TEST_P(PolicyInvariants, CapacityNeverExceededInCluster) {
  capacity_never_exceeded(shared_trace(), GetParam(), cluster4);
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
  deterministic_for_fixed_seed(shared_trace(), GetParam(), one_tier);
}

TEST_P(PolicyInvariants, DeterministicForFixedSeedInCluster) {
  deterministic_for_fixed_seed(shared_trace(), GetParam(), cluster4);
}

TEST_P(PolicyInvariants, HashedPathMatchesPlain) {
  hashed_path_matches_plain(shared_trace(), GetParam(), plain);
}

TEST_P(PolicyInvariants, HashedPathMatchesPlainInOneTierTopology) {
  hashed_path_matches_plain(shared_trace(), GetParam(), one_tier);
}

TEST_P(PolicyInvariants, HashedPathMatchesPlainInCluster) {
  hashed_path_matches_plain(shared_trace(), GetParam(), cluster4);
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

TEST(ClusterWrapper, LowHotThresholdRunsEveryRequestPath) {
  // The cluster4 wrapper above is only a meaningful contract check if its
  // requests take every path: single-owner routing, whose misses go to the
  // origin, and hot-key spreading, whose misses probe a peer and sometimes
  // find the object there.
  const Trace t = generate_trace(cdn_t_like(0.03));
  const CachePtr cache = cluster4("LRU", 32ULL << 20, 5);
  for (const Request& req : t.requests) cache->access(req);
  const auto& cluster = dynamic_cast<const cluster::ClusterCache&>(*cache);
  const cluster::ClusterTotals totals = cluster.totals();
  EXPECT_GT(totals.hot_spread_requests, 0u);
  EXPECT_LT(totals.hot_spread_requests, totals.requests);
  EXPECT_GT(totals.peer_fills, 0u);
  EXPECT_GT(totals.origin_fetches, 0u);
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
