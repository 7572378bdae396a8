// Table 1: summary statistics of the three workloads.
//
// Paper (full-size traces):            CDN-T    CDN-W    CDN-A
//   Total Requests (M)                 78.75    100.0    99.55
//   Unique Objects (M)                 24.71    2.34     54.43
//   Mean Object Size (KB)              44.56    35.07    31.21
//   Working Set Size (GB)              1097     327      1580
// Our synthetic stand-ins are scaled ~1:80 in requests; the *relative*
// structure (CDN-A most one-hit wonders, CDN-W smallest catalog / heaviest
// reuse, mean sizes) is what the experiments depend on.
#include "bench_harness.hpp"
#include "trace/stats.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  std::vector<TraceStats> stats;
  for (const auto& t : traces()) stats.push_back(compute_stats(t));
  std::printf("\n== Table 1: workload summary (synthetic, scale %.2f) ==\n%s",
              kTraceScale, format_table1(stats).c_str());
  return 0;
}
