// Tests for the cross-TU layer: the two-phase project scan (lock-order,
// hot-path purity, accounting), the tokenizer differential fixtures, and
// the default directory excludes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "detlint.hpp"

#ifndef DETLINT_TESTDATA_DIR
#error "build must define DETLINT_TESTDATA_DIR"
#endif

namespace cdn::detlint {
namespace {

namespace fs = std::filesystem;

/// Findings as (rule-id, line) pairs sorted by (file, line, rule) so the
/// pinned expectations below are order-independent.
std::vector<std::pair<std::string, int>> rule_lines(
    std::vector<Finding> findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return std::string(rule_id(a.rule)) < rule_id(b.rule);
            });
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(rule_id(f.rule), f.line);
  return out;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- lock-order ----------------------------------------------------------

TEST(DetlintLockOrder, CycleAcrossTwoTranslationUnits) {
  // left.cpp takes left_ then right_; right.cpp takes right_ then left_.
  // Neither file is wrong alone — only the merged project model shows the
  // cycle, anchored at the lexically smallest witness edge.
  const auto findings =
      scan_project(DETLINT_TESTDATA_DIR, {"v2/lockcycle_bad"});
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{
                {"lock-order-cycle", 8}}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "v2/lockcycle_bad/left.cpp");
  // The message names the canonical per-class mutexes and both witnesses.
  EXPECT_NE(findings[0].message.find("PairBad::left_"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("PairBad::right_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("right.cpp:8"), std::string::npos);
}

TEST(DetlintLockOrder, ConsistentOrderAcrossTUsIsClean) {
  const auto findings =
      scan_project(DETLINT_TESTDATA_DIR, {"v2/lockcycle_good"});
  EXPECT_TRUE(findings.empty()) << ::testing::PrintToString(findings);
}

// ---- hot-path purity -----------------------------------------------------

TEST(DetlintHotPurity, EveryFamilyFiresAtPinnedLines) {
  // The CDN_HOT markers of drain() and peek() live on the declarations in
  // pump.hpp; their findings (lines 9 and 14) land in pump.cpp, which
  // carries no marker of its own — this pins the cross-TU
  // decl-to-definition hot transfer. hot_region() is a hot-begin/end
  // comment region. cold_region() has the same alloc/throw/IO body outside
  // any hot region and contributes nothing.
  const auto findings = scan_project(DETLINT_TESTDATA_DIR, {"v2/hot_bad"});
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{
                {"alloc-in-hot", 9},
                {"throw-in-hot", 14},
                {"alloc-in-hot", 24},
                {"throw-in-hot", 28},
                {"io-in-hot", 29}}))
      << ::testing::PrintToString(findings);
  for (const auto& f : findings) {
    EXPECT_EQ(f.file, "v2/hot_bad/pump.cpp");
  }
}

TEST(DetlintHotPurity, ReservedGrowthIsClean) {
  // BufGood::fill is hot and grows v_, but BufGood::setup .reserve()s the
  // member, which exempts the growth.
  const auto findings = scan_project(DETLINT_TESTDATA_DIR, {"v2/hot_good"});
  EXPECT_TRUE(findings.empty()) << ::testing::PrintToString(findings);
}

// ---- accounting ----------------------------------------------------------

TEST(DetlintAccounting, UnreferencedMemberFiresOnceWaiverSilences) {
  // TableBad omits w_ from metadata_bytes() -> one finding at the
  // definition. TableGood references every member and TableWaived carries
  // a reasoned allow — same file, no further findings.
  const auto findings =
      scan_project(DETLINT_TESTDATA_DIR, {"v2/accounting"});
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{{"accounting", 11}}))
      << ::testing::PrintToString(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "v2/accounting/table.hpp");
  EXPECT_NE(findings[0].message.find("'w_'"), std::string::npos)
      << findings[0].message;
}

// ---- tokenizer differentials ---------------------------------------------

TEST(DetlintTokenizer, TortureFixtureIsCompletelyClean) {
  // Raw strings (plain, custom-delimiter with a fake `)"` closer,
  // encoding-prefixed), a backslash-continued line comment, a block
  // comment, and digit separators — each hiding tokens that fire every v1
  // rule when live. Both scan layers must see zero findings.
  const auto findings = scan_project(DETLINT_TESTDATA_DIR, {"v2/tokenizer"});
  EXPECT_TRUE(findings.empty()) << ::testing::PrintToString(findings);
}

TEST(DetlintTokenizer, SameTokenFiresOutsideTheRawString) {
  // The differential: one std::rand() inside a raw string, one live. Only
  // the live one may fire, and at its exact line.
  const auto findings = scan_source(
      "src/core/fixture.cpp",
      "const char* s = R\"(std::rand();)\";\n"
      "int f() { return std::rand(); }\n");
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{{"raw-rng", 2}}));
}

TEST(DetlintTokenizer, ContinuedLineCommentSwallowsNextLine) {
  const auto findings = scan_source("src/core/fixture.cpp",
                                    "// comment continues \\\n"
                                    "std::rand();\n"
                                    "int g() { return std::rand(); }\n");
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{{"raw-rng", 3}}));
}

// ---- default excludes ----------------------------------------------------

TEST(DetlintExcludes, BuildDirectoriesAreSkippedByDefault) {
  // exclude_tree/build/planted.cpp holds a raw-rng violation; the
  // excludes (build*, .git) must keep the project scan from reading it.
  // Scanning the file directly surfaces it — proof the planted file is
  // really there and really bad.
  EXPECT_TRUE(
      scan_project(DETLINT_TESTDATA_DIR, {"v2/exclude_tree"}).empty());

  const std::string planted = "v2/exclude_tree/build/planted.cpp";
  const auto findings = scan_source(
      planted, slurp(fs::path(DETLINT_TESTDATA_DIR) / planted));
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{{"raw-rng", 4}}));
}

}  // namespace
}  // namespace cdn::detlint
