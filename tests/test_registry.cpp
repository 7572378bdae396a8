// Tests for the policy registry.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/registry.hpp"

namespace cdn {
namespace {

TEST(Registry, AllListedNamesConstruct) {
  for (const auto& name : all_policy_names()) {
    auto cache = make_cache(name, 1 << 20);
    ASSERT_NE(cache, nullptr) << name;
    EXPECT_EQ(cache->capacity(), 1u << 20) << name;
    EXPECT_FALSE(cache->name().empty()) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_cache("definitely-not-a-policy", 1 << 20),
               std::invalid_argument);
}

TEST(Registry, FigureGroupsAreRegistered) {
  const auto all = all_policy_names();
  auto has = [&](const std::string& n) {
    return std::find(all.begin(), all.end(), n) != all.end();
  };
  for (const auto& n : insertion_policy_names()) {
    EXPECT_TRUE(has(n)) << n;
  }
  for (const auto& n : replacement_policy_names()) {
    EXPECT_TRUE(has(n)) << n;
  }
}

TEST(Registry, InsertionGroupMatchesPaperRoster) {
  // Fig. 8: eight insertion baselines + SCIP.
  EXPECT_EQ(insertion_policy_names().size(), 9u);
  EXPECT_EQ(insertion_policy_names().back(), "SCIP");
}

TEST(Registry, ReplacementGroupMatchesPaperRoster) {
  // Fig. 10: nine algorithms + SCIP (LRU included as the base).
  EXPECT_EQ(replacement_policy_names().size(), 10u);
}

TEST(Registry, NamesPropagateToInstances) {
  for (const auto& name : all_policy_names()) {
    EXPECT_EQ(make_cache(name, 1 << 20)->name(), name);
  }
}

}  // namespace
}  // namespace cdn
