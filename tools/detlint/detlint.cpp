#include "detlint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "model.hpp"
#include "passes.hpp"

namespace cdn::detlint {
namespace {

namespace fs = std::filesystem;

bool path_matches_any(const std::string& rel,
                      std::initializer_list<const char*> fragments) {
  for (const char* f : fragments) {
    if (rel.find(f) != std::string::npos) return true;
  }
  return false;
}

bool is_header(const std::string& rel) {
  return rel.size() >= 2 &&
         (rel.rfind(".hpp") == rel.size() - 4 ||
          rel.rfind(".h") == rel.size() - 2);
}

// Collects identifiers declared in this file with an unordered container
// type, e.g. `std::unordered_map<K, V> index_;`. Template arguments are
// skipped with angle-bracket depth counting, so nested templates and
// commas are handled.
std::set<std::string> unordered_container_names(
    const std::vector<std::string>& code) {
  static const std::regex kDecl(R"(unordered_(map|set)\s*<)");
  std::set<std::string> names;
  for (const std::string& line : code) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kDecl);
         it != std::sregex_iterator(); ++it) {
      std::size_t pos = static_cast<std::size_t>(it->position()) +
                        it->length();  // just past the '<'
      int depth = 1;
      while (pos < line.size() && depth > 0) {
        if (line[pos] == '<') ++depth;
        if (line[pos] == '>') --depth;
        ++pos;
      }
      if (depth != 0) continue;  // declaration spans lines; skip
      while (pos < line.size() &&
             std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
      std::string name;
      while (pos < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[pos])) ||
              line[pos] == '_')) {
        name.push_back(line[pos++]);
      }
      while (pos < line.size() &&
             std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
      // Variable declarations end in ; = { ( — a bare `>` type in a
      // template parameter list or return type does not.
      if (!name.empty() && pos < line.size() &&
          (line[pos] == ';' || line[pos] == '=' || line[pos] == '{' ||
           line[pos] == '(')) {
        names.insert(name);
      }
    }
  }
  return names;
}

// Returns the identifier a range-for iterates, for `for (decl : expr)`
// forms where expr ends in an identifier (`m_`, `obj.m_`, `*p.m_`).
// Returns "" if the line is not a single-line range-for.
std::string range_for_target(const std::string& code) {
  static const std::regex kFor(R"(\bfor\s*\()");
  std::smatch fm;
  if (!std::regex_search(code, fm, kFor)) return "";
  const std::size_t open =
      static_cast<std::size_t>(fm.position()) + fm.length() - 1;
  int depth = 1;
  std::size_t colon = std::string::npos;
  std::size_t close = std::string::npos;
  for (std::size_t i = open + 1; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') {
      --depth;
      if (depth == 0) {
        close = i;
        break;
      }
    }
    if (c == ':' && depth == 1) {
      const bool dbl = (i + 1 < code.size() && code[i + 1] == ':') ||
                       (i > 0 && code[i - 1] == ':');
      if (!dbl && colon == std::string::npos) colon = i;
    }
  }
  if (colon == std::string::npos || close == std::string::npos) return "";
  const std::string expr = trim(code.substr(colon + 1, close - colon - 1));
  static const std::regex kTail(R"(([A-Za-z_]\w*)$)");
  std::smatch m;
  if (!std::regex_search(expr, m, kTail)) return "";
  return m[1].str();
}

struct RuleInfo {
  Rule rule;
  const char* id;
  const char* help;
};

// The listed rules, then the suppression check (always last: all_rules()
// and rule_from_id() stop before it).
const RuleInfo kRules[] = {
    {Rule::kWallClock, "wall-clock",
     "wall-clock time source outside src/util/stopwatch"},
    {Rule::kRawRng, "raw-rng",
     "non-deterministic RNG outside src/util/rng (use cdn::Rng)"},
    {Rule::kUnorderedIter, "unordered-iter",
     "iteration over std::unordered_{map,set} in an output-affecting module"},
    {Rule::kFloatAccum, "float-accum",
     "order-sensitive floating-point reduction in a metrics-aggregation "
     "module"},
    {Rule::kRawMutex, "raw-mutex",
     "raw std locking primitive outside src/util/ (use the annotated "
     "cdn::Mutex/MutexLock/CondVar)"},
    {Rule::kPragmaOnce, "pragma-once", "header missing '#pragma once'"},
    {Rule::kLockOrderCycle, "lock-order-cycle",
     "cycle in the cross-TU mutex acquisition-order graph (potential "
     "deadlock)"},
    {Rule::kAllocInHot, "alloc-in-hot",
     "allocation (new/make_unique/string temporary/unreserved container "
     "growth) inside an annotated hot region"},
    {Rule::kThrowInHot, "throw-in-hot",
     "'throw' inside an annotated hot region"},
    {Rule::kIoInHot, "io-in-hot",
     "stream/stdio IO inside an annotated hot region"},
    {Rule::kAccounting, "accounting",
     "metadata_bytes() does not reference every container/slab member "
     "(accounting drift)"},
    {Rule::kBadAllow, "bad-allow",
     "detlint:allow that names no rule or gives no reason"},
};
constexpr std::size_t kListedRules = std::size(kRules) - 1;

}  // namespace

const char* rule_id(Rule r) {
  for (const RuleInfo& info : kRules) {
    if (info.rule == r) return info.id;
  }
  return "unknown";
}

const char* rule_help(Rule r) {
  for (const RuleInfo& info : kRules) {
    if (info.rule == r) return info.help;
  }
  return "";
}

std::optional<Rule> rule_from_id(const std::string& id) {
  for (std::size_t i = 0; i < kListedRules; ++i) {
    if (id == kRules[i].id) return kRules[i].rule;
  }
  return std::nullopt;
}

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> rules = [] {
    std::vector<Rule> r;
    for (std::size_t i = 0; i < kListedRules; ++i) r.push_back(kRules[i].rule);
    return r;
  }();
  return rules;
}

std::ostream& operator<<(std::ostream& os, const Finding& f) {
  return os << f.file << ":" << f.line << ": [" << rule_id(f.rule) << "] "
            << f.message;
}

std::vector<Finding> scan_source(const std::string& rel_path,
                                 const std::string& text) {
  const CodeView view = build_code_view(text);
  const std::vector<std::string>& raw = view.raw;
  const std::vector<std::string>& code = view.code;
  const Suppressions suppressions = parse_suppressions(raw);
  const std::vector<std::set<Rule>>& allowed = suppressions.allowed;

  std::vector<Finding> findings;
  for (const auto& [line, problem] : suppressions.malformed) {
    findings.push_back(Finding{
        rel_path, line, Rule::kBadAllow,
        "detlint:allow " + problem +
            "; write // detlint:allow(<rule-id>[, <rule-id>...], <reason>) "
            "with ids from --list-rules"});
  }
  auto emit = [&](int line, Rule rule, std::string message) {
    const std::size_t idx = static_cast<std::size_t>(line - 1);
    if (idx < allowed.size() && allowed[idx].count(rule) != 0) return;
    findings.push_back(Finding{rel_path, line, rule, std::move(message)});
  };

  static const std::regex kWallClock(
      R"(system_clock|\b(localtime|gmtime|gettimeofday)|\b(time|clock)\s*\()");
  static const std::regex kRawRng(
      R"(\bstd\s*::\s*rand\b|\bs?rand\s*\(|\brandom_device\b|\brandom_shuffle\b)");
  static const std::regex kFloatReduce(
      R"(std\s*::\s*(accumulate|reduce|transform_reduce)\s*\()");
  static const std::regex kFloatHint(R"(\bfloat\b|\bdouble\b|\d\.\d|\.\d+f)");
  static const std::regex kRawMutex(
      R"(std\s*::\s*((recursive_|timed_|shared_)?mutex|lock_guard|unique_lock|scoped_lock|condition_variable(_any)?)\b)");

  // The sanctioned clock shim, the deterministic RNG itself, and the
  // annotated wrappers that must hold the raw std locking types.
  const bool wall_exempt = path_matches_any(rel_path, {"src/util/stopwatch"});
  const bool rng_exempt = path_matches_any(rel_path, {"src/util/rng"});
  const bool mutex_exempt = path_matches_any(rel_path, {"src/util/"});
  // Modules whose iteration order reaches simulator output, and modules
  // that aggregate float metrics (ordering changes the bits).
  const bool ordered_module =
      path_matches_any(rel_path, {"src/obs", "src/sim", "src/analysis"});
  const bool accum_module =
      path_matches_any(rel_path, {"src/obs", "src/ml", "src/analysis"});

  const std::set<std::string> unordered_names =
      ordered_module ? unordered_container_names(code)
                     : std::set<std::string>();

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const int lineno = static_cast<int>(i) + 1;
    std::smatch m;

    if (!wall_exempt && std::regex_search(line, m, kWallClock)) {
      emit(lineno, Rule::kWallClock,
           "wall-clock time source '" + trim(m.str()) +
               "' outside src/util/stopwatch; results must not depend on "
               "when they run (use cdn::Stopwatch for measurement only)");
    }
    if (!rng_exempt && std::regex_search(line, m, kRawRng)) {
      emit(lineno, Rule::kRawRng,
           "non-deterministic RNG '" + trim(m.str()) +
               "' outside src/util/rng; take an explicit cdn::Rng so runs "
               "are bit-reproducible");
    }
    if (!mutex_exempt && std::regex_search(line, m, kRawMutex)) {
      emit(lineno, Rule::kRawMutex,
           "raw locking primitive '" + trim(m.str()) +
               "' outside src/util/; use cdn::Mutex/MutexLock/CondVar "
               "(util/mutex.hpp) so -Wthread-safety can check the locking "
               "protocol");
    }
    if (accum_module && std::regex_search(line, m, kFloatReduce)) {
      const bool is_accumulate = m[1].str() == "accumulate";
      // std::accumulate is order-defined but still flagged when it folds
      // floats (refactors that parallelize it change the bits silently);
      // std::reduce / transform_reduce are unordered by spec.
      std::string window = line;
      for (std::size_t j = i + 1; j < code.size() && j <= i + 2; ++j) {
        window += code[j];
      }
      if (!is_accumulate || std::regex_search(window, kFloatHint)) {
        emit(lineno, Rule::kFloatAccum,
             "'std::" + m[1].str() +
                 "' over floating-point data in an aggregation module; "
                 "fold in a fixed-order loop so summation order is pinned");
      }
    }
    if (!unordered_names.empty()) {
      const std::string target = range_for_target(line);
      if (!target.empty() && unordered_names.count(target)) {
        emit(lineno, Rule::kUnorderedIter,
             "iteration over unordered container '" + target +
                 "' in an output-affecting module; hash order is not "
                 "deterministic across platforms — iterate a sorted view "
                 "or use an ordered container");
      } else {
        for (const std::string& name : unordered_names) {
          static const std::string kBegin = "begin";
          const std::size_t p = line.find(name + ".");
          if (p == std::string::npos) continue;
          const std::string rest = line.substr(p + name.size() + 1);
          if (rest.compare(0, kBegin.size(), kBegin) == 0 ||
              rest.compare(0, 1 + kBegin.size(), "c" + kBegin) == 0) {
            emit(lineno, Rule::kUnorderedIter,
                 "iterator over unordered container '" + name +
                     "' in an output-affecting module; hash order is not "
                     "deterministic across platforms");
            break;
          }
        }
      }
    }
  }

  if (is_header(rel_path)) {
    bool has_pragma = false;
    for (const std::string& line : raw) {
      if (trim(line) == "#pragma once") {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      emit(1, Rule::kPragmaOnce,
           "header is missing '#pragma once' (double inclusion breaks the "
           "single-definition assumptions in the policy registry)");
    }
  }

  return findings;
}

namespace {

/// Prunes stale build trees and VCS metadata under the scan root.
bool path_excluded(const fs::path& rel) {
  for (const fs::path& comp : rel) {
    const std::string c = comp.string();
    if (c == ".git" || c.compare(0, 5, "build") == 0) return true;
  }
  return false;
}

std::vector<std::string> list_sources(const std::string& root,
                                      const std::vector<std::string>& subdirs) {
  std::vector<std::string> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) {
      throw std::runtime_error("detlint: no such directory: " + dir.string());
    }
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::path rel = fs::relative(it->path(), root);
      if (it->is_directory() && path_excluded(rel)) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".cpp" && ext != ".cc" && ext != ".hpp" && ext != ".h") {
        continue;
      }
      if (path_excluded(rel)) continue;
      files.push_back(rel.generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::string& root, const std::string& rel) {
  std::ifstream in(fs::path(root) / rel, std::ios::binary);
  if (!in) throw std::runtime_error("detlint: cannot read " + rel);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::vector<Finding> scan_project(const std::string& root,
                                  const std::vector<std::string>& subdirs) {
  ProjectModel pm;
  std::vector<Finding> findings;
  for (const std::string& rel : list_sources(root, subdirs)) {
    const std::string text = read_file(root, rel);
    std::vector<Finding> f = scan_source(rel, text);
    findings.insert(findings.end(), std::make_move_iterator(f.begin()),
                    std::make_move_iterator(f.end()));
    pm.add(build_file_model(rel, text));
  }
  pm.finalize();
  std::vector<Finding> passes = run_project_passes(pm);
  findings.insert(findings.end(), std::make_move_iterator(passes.begin()),
                  std::make_move_iterator(passes.end()));
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return std::string(rule_id(a.rule)) < rule_id(b.rule);
            });
  return findings;
}

}  // namespace cdn::detlint
