// detlint — repo-specific determinism lint.
//
// The reproduction's tests pin MAB trajectories bit-for-bit
// (test_golden_master, test_sweep_determinism), so any code path that can
// read wall-clock time, platform entropy, or hash-order reaches straight
// into the golden masters. detlint is the static gate for those hazards:
// a lexical scanner (deliberately not a compiler plugin — it must stay
// trivial to build and fast enough to run as a ctest on every build) that
// walks src/, bench/ and tests/ and reports, per file:
//
//   wall-clock      system_clock / time() / localtime / gettimeofday
//                   outside src/util/stopwatch (the one sanctioned shim)
//   raw-rng         std::rand / srand / random_device / random_shuffle
//                   outside src/util/rng (every component takes cdn::Rng)
//   unordered-iter  iteration over std::unordered_{map,set} variables in
//                   output-affecting modules (src/obs, src/sim,
//                   src/analysis) where hash order would leak into results
//   float-accum     order-sensitive float reductions (std::accumulate with
//                   a float init, std::reduce, std::transform_reduce) in
//                   metrics-aggregation modules (src/obs, src/ml,
//                   src/analysis)
//   raw-mutex       std::mutex / std::lock_guard / std::unique_lock /
//                   std::scoped_lock / std::condition_variable outside
//                   src/util/ — all locking must go through the thread-
//                   safety-annotated cdn::Mutex / MutexLock / CondVar so
//                   clang's -Wthread-safety can check the protocol
//   pragma-once     headers missing `#pragma once`
//
// plus the cross-TU passes of passes.hpp: lock-order-cycle, alloc-in-hot,
// throw-in-hot, io-in-hot and accounting.
//
// Suppressions: `// detlint:allow(<rule-id>[, <rule-id>...], <reason>)` on
// the offending line or the line directly above silences the finding. The
// reason runs to the last `)` on the line and must not be empty. A
// suppression whose first id is not a rule, or that gives no reason,
// silences nothing and is itself reported as `bad-allow`, so a waiver can
// neither go unexplained nor outlive the rule it names.
//
// Kept to C++17 on purpose so the tool builds on any toolchain the CI may
// pin, independent of the C++20 library targets.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace cdn::detlint {

enum class Rule {
  kWallClock,
  kRawRng,
  kUnorderedIter,
  kFloatAccum,
  kRawMutex,
  kPragmaOnce,
  // Cross-TU passes (see passes.hpp).
  kLockOrderCycle,
  kAllocInHot,
  kThrowInHot,
  kIoInHot,
  kAccounting,
  /// Not a rule: a malformed `detlint:allow`. Always on, never suppressible,
  /// and not listed by all_rules().
  kBadAllow,
};

/// Stable rule identifier used in reports and suppressions.
const char* rule_id(Rule r);
/// The listed rule with this id; std::nullopt for anything else, including
/// "bad-allow".
std::optional<Rule> rule_from_id(const std::string& id);
/// The rules a suppression may name, in --list-rules order.
const std::vector<Rule>& all_rules();
/// One-line description for --list-rules.
const char* rule_help(Rule r);

struct Finding {
  std::string file;  ///< path relative to the scan root
  int line = 0;      ///< 1-based
  Rule rule = Rule::kWallClock;
  std::string message;
};

/// `file:line: [rule-id] message`, the CLI's report line.
std::ostream& operator<<(std::ostream& os, const Finding& f);

/// Scans one translation unit with the per-file rules. `rel_path`
/// (relative to the scan root) selects which rules apply; `text` is the
/// file contents. Suppressed findings are already removed.
std::vector<Finding> scan_source(const std::string& rel_path,
                                 const std::string& text);

/// The project scan the CLI runs: the per-file rules on every C++ source
/// (.cpp/.cc/.hpp/.h) under root/<subdir> for each subdir, then the
/// cross-TU passes (passes.hpp) over the merged project model. Skips
/// directories named `build*` or `.git`. Findings come back sorted by
/// (file, line, rule id). Throws std::runtime_error on IO failure.
std::vector<Finding> scan_project(const std::string& root,
                                  const std::vector<std::string>& subdirs);

}  // namespace cdn::detlint
