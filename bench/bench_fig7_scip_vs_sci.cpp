// Figure 7: SCIP vs SCI — the value of treating hit objects (promotion) as
// special insertions. The paper reports SCIP below SCI by 4.62 / 1.62 /
// 5.30 points on CDN-T / CDN-W / CDN-A.
//
// Expected shape here: SCIP <= SCI everywhere, with the visible gap on the
// P-ZRO-rich CDN-W-like workload (our promotion duel only engages when its
// exact-scale shadow monitors prove demotion pays; see EXPERIMENTS.md).
#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "sim/sweep.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  obs::BenchReport report("fig7_scip_vs_sci");
  Table table({"trace", "LRU", "SCI", "SCIP", "SCIP-SCI gap"});
  for (const Trace& t : traces()) {
    const std::uint64_t cap = cap_frac(t, kFig8SmallFrac);
    std::vector<SweepJob> jobs;
    for (const char* name : {"LRU", "SCI", "SCIP"}) {
      jobs.push_back(SweepJob{
          [name, cap] { return make_cache(name, cap); }, &t, SimOptions{}});
    }
    const auto res = run_sweep(jobs);
    for (const SimResult& r : res) report.add_row(sim_result_row(r));
    table.add_row({t.name, Table::pct(res[0].object_miss_ratio()),
                   Table::pct(res[1].object_miss_ratio()),
                   Table::pct(res[2].object_miss_ratio()),
                   Table::pct(res[2].object_miss_ratio() -
                              res[1].object_miss_ratio())});
  }
  print_block("Fig. 7: SCIP vs SCI, object miss ratio (cache = 5.8% of WSS)",
              table);
  return write_report(report);
}
