// Extension experiment (paper §7 discussion): insertion policies vs
// admission policies. The paper argues that denying never-reused data is
// the admission-side twin of SCIP's LRU-position insertion ("inserting
// ZROs at the LRU position ~ admission with a second chance"). This bench
// puts the two families side by side, plus the paper's future-work item —
// SCIP on a multi-chain (S4LRU) structure — on all three workloads.
#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "sim/sweep.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  const std::vector<std::string> policies{
      "LRU", "2Q", "TinyLFU", "AdaptSize", "ARC",
      "LIRS", "SCIP", "S4LRU", "S4LRU-SCIP"};
  Table table({"policy", "CDN-T obj", "CDN-T byte", "CDN-W obj",
               "CDN-W byte", "CDN-A obj", "CDN-A byte"});
  std::vector<SweepJob> jobs;
  for (const auto& name : policies) {
    for (const Trace& t : traces()) {
      const std::uint64_t cap = cap_frac(t, kFig8SmallFrac);
      jobs.push_back(SweepJob{
          [name, cap] { return make_cache(name, cap); }, &t, SimOptions{}});
    }
  }
  const auto res = run_sweep(jobs);
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const auto& rt = res[p * 3 + 0];
    const auto& rw = res[p * 3 + 1];
    const auto& ra = res[p * 3 + 2];
    table.add_row({policies[p], Table::pct(rt.object_miss_ratio()),
                   Table::pct(rt.byte_miss_ratio()),
                   Table::pct(rw.object_miss_ratio()),
                   Table::pct(rw.byte_miss_ratio()),
                   Table::pct(ra.object_miss_ratio()),
                   Table::pct(ra.byte_miss_ratio())});
  }
  print_block(
      "Extension: admission family, ARC/LIRS, and multi-chain SCIP",
      table);
  return 0;
}
