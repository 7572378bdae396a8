// Figure 12: SCIP as a generic component — enhancing LRU-K and LRB by
// replacing their insertion/promotion treatment, with ASC-IP as the
// reference enhancer. The paper reports LRU-K-SCIP / LRB-SCIP below their
// bases by 8.05 / 0.44 points, exceeding ASC-IP's enhancement.
#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "sim/sweep.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  const std::vector<std::string> policies{"LRU-2",     "LRU-2-ASC-IP",
                                          "LRU-2-SCIP", "LRB",
                                          "LRB-ASC-IP", "LRB-SCIP"};
  Table table({"policy", "CDN-T", "CDN-W", "CDN-A", "avg"});
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
    const double mt = res[p * 3 + 0].object_miss_ratio();
    const double mw = res[p * 3 + 1].object_miss_ratio();
    const double ma = res[p * 3 + 2].object_miss_ratio();
    table.add_row({policies[p], Table::pct(mt), Table::pct(mw),
                   Table::pct(ma), Table::pct((mt + mw + ma) / 3.0)});
  }
  print_block("Fig. 12: enhancing LRU-K and LRB (object miss ratio)",
              table);
  return 0;
}
