// Figure 10: miss ratios of Belady, SCIP and the replacement-algorithm
// baselines (LRU, LRU-2, S4LRU, SS-LRU, GDSF, LHD, CACHEUS, LRB, GL-Cache)
// on the three workloads at the default cache size.
//
// Expected shape: Belady floor; SCIP competitive with the learned policies
// at a fraction of their cost (the cost side is Fig. 11).
#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "sim/sweep.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  obs::BenchReport report("fig10_replacement");
  std::vector<std::string> policies{"Belady"};
  for (const auto& n : replacement_policy_names()) policies.push_back(n);

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
  for (const SimResult& r : res) report.add_row(sim_result_row(r));
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
  print_block("Fig. 10: replacement algorithms (cache = 5.8% of WSS)",
              table);
  return write_report(report);
}
