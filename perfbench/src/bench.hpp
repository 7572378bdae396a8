// The benchmark's workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string spans_path;  ///< sampled span output (traced run); may be empty
};

/// Workload names in report order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload: prints a readable report, then as the last line the
/// result object {"correct","attempted","failed","metrics"}. Returns 0 when
/// every output check passed, 1 otherwise. Throws on invalid options.
int run(const Options& opt);

}  // namespace perfbench
