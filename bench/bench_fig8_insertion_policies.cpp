// Figure 8: miss ratios of Belady, SCIP and the eight insertion/promotion
// baselines (all on LRU victim selection) on the three workloads at cache
// sizes equivalent to the paper's 64 / 128 / 256 GB (5.8 / 11.7 / 23.3 %
// of the working set).
//
// Expected shape: Belady is the floor; LIP the worst by a wide margin;
// SCIP at or near the best of the adaptive group (paper: SCIP beats ASC-IP
// by 4.69/1.92/3.26 points). Note ASC-IP trades byte miss ratio for object
// miss ratio via its size filter — we report both (the paper's simulator,
// LRB's, reports byte miss ratio by default).
#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "sim/sweep.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  const struct {
    double frac;
    const char* label;
  } sizes[] = {{kFig8SmallFrac, "(a) 5.8% of WSS  (paper: 64 GB)"},
               {kFig8MediumFrac, "(b) 11.7% of WSS (paper: 128 GB)"},
               {kFig8LargeFrac, "(c) 23.3% of WSS (paper: 256 GB)"}};
  std::vector<std::string> policies{"Belady"};
  for (const auto& n : insertion_policy_names()) policies.push_back(n);

  for (const auto& size : sizes) {
    Table table({"policy", "CDN-T obj", "CDN-T byte", "CDN-W obj",
                 "CDN-W byte", "CDN-A obj", "CDN-A byte"});
    // One parallel sweep per size covering policies x traces.
    std::vector<SweepJob> jobs;
    for (const auto& name : policies) {
      for (const Trace& t : traces()) {
        const std::uint64_t cap = cap_frac(t, size.frac);
        jobs.push_back(SweepJob{
            [name, cap] { return make_cache(name, cap); }, &t,
            SimOptions{}});
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
    print_block(std::string("Fig. 8 ") + size.label, table);
  }
  return 0;
}
