// Parameterized invariant suite: every registered policy must uphold the
// basic cache contract on a realistic workload —
//   * never exceed its byte capacity,
//   * report contains() consistently with admissions,
//   * be deterministic for a fixed seed,
//   * produce hit counts bounded by requests,
//   * behave identically through the hashed and the plain entry points,
//   * survive pathological inputs (oversized objects, capacity 1, repeats).
// The policy set is the registry's, so a new policy cannot skip the suite.
#include <gtest/gtest.h>

#include <algorithm>

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

TEST_P(PolicyInvariants, CapacityNeverExceeded) {
  const Trace& t = shared_trace();
  const std::uint64_t cap = 64ULL << 20;
  auto cache = make_cache(GetParam(), cap);
  for (std::size_t i = 0; i < t.size(); ++i) {
    cache->access(t[i]);
    if (i % 1024 == 0) {
      ASSERT_LE(cache->used_bytes(), cap) << "at request " << i;
    }
  }
  EXPECT_LE(cache->used_bytes(), cap);
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
  const Trace& t = shared_trace();
  auto a = make_cache(GetParam(), 32ULL << 20, /*seed=*/5);
  auto b = make_cache(GetParam(), 32ULL << 20, /*seed=*/5);
  const auto ra = simulate(*a, t);
  const auto rb = simulate(*b, t);
  EXPECT_EQ(ra.hits, rb.hits);
  EXPECT_EQ(ra.bytes_hit, rb.bytes_hit);
}

TEST_P(PolicyInvariants, HashedPathMatchesPlain) {
  // access_hashed / contains_hashed with h == hash64(id) must behave
  // exactly like access / contains (sim/cache.hpp): two same-seed caches,
  // one driven through each path, agree on every request.
  const Trace& t = shared_trace();
  auto plain = make_cache(GetParam(), 32ULL << 20, /*seed=*/5);
  auto hashed = make_cache(GetParam(), 32ULL << 20, /*seed=*/5);
  const std::size_t n = std::min<std::size_t>(t.size(), 60000);
  for (std::size_t i = 0; i < n; ++i) {
    const Request& req = t[i];
    ASSERT_EQ(plain->access(req), hashed->access_hashed(req, hash64(req.id)))
        << "hit differs at request " << i;
    // The object just accessed, and an older one that may have left.
    for (const std::uint64_t id : {req.id, t[i / 2].id}) {
      ASSERT_EQ(plain->contains(id), hashed->contains_hashed(id, hash64(id)))
          << "contains(" << id << ") differs at request " << i;
    }
  }
  EXPECT_EQ(plain->used_bytes(), hashed->used_bytes());
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

TEST_P(PolicyInvariants, MetadataReportedNonZeroAfterLoad) {
  const Trace& t = shared_trace();
  auto cache = make_cache(GetParam(), 32ULL << 20);
  for (std::size_t i = 0; i < std::min<std::size_t>(t.size(), 20000); ++i) {
    cache->access(t[i]);
  }
  EXPECT_GT(cache->metadata_bytes(), 0u);
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
