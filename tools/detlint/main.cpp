// detlint CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
//   detlint --root <dir> [--list-rules] <subdir>...
//
// Runs the project scan (per-file lexical rules + cross-TU passes:
// lock-order, hot-path purity, accounting — see passes.hpp) over
// root/<subdir>... and prints one line per unsuppressed finding.
#include <iostream>
#include <string>
#include <vector>

#include "detlint.hpp"

namespace {

int usage(const std::string& msg) {
  std::cerr << "detlint: " << msg << "\n"
            << "usage: detlint --root <dir> [--list-rules] <subdir>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::vector<std::string> subdirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return usage("--root needs an argument");
      root = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto rule : cdn::detlint::all_rules()) {
        std::cout << cdn::detlint::rule_id(rule) << "  "
                  << cdn::detlint::rule_help(rule) << "\n";
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage("unknown option " + arg);
    } else {
      subdirs.push_back(arg);
    }
  }
  if (root.empty()) return usage("--root is required");
  if (subdirs.empty()) return usage("no directories to scan");

  std::vector<cdn::detlint::Finding> findings;
  try {
    findings = cdn::detlint::scan_project(root, subdirs);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  for (const auto& f : findings) std::cout << f << "\n";
  if (!findings.empty()) {
    std::cout << "detlint: " << findings.size()
              << " unsuppressed finding(s)\n";
    return 1;
  }
  std::cout << "detlint: clean\n";
  return 0;
}
