// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Measures one workload (README.md). --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer breakdown; either way the last line of
// standard output is the result object.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\nworkloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *s != '\0' && *s != '-' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed" && parse_u64(v, u)) {
      opt.seed = u;
    } else if (a == "--seconds" && parse_u64(v, u) && u > 0) {
      opt.seconds = static_cast<double>(u);
    } else if (a == "--trace" && parse_u64(v, u) && u <= 1) {
      opt.trace = u == 1;
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
