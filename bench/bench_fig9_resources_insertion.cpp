// Figure 9: resource consumption of the insertion policies on CDN-T —
// CPU cost, peak (metadata) memory, and transactions per second.
//
// The paper measured process CPU% / GB / TPS on a 56-core testbed; the
// hardware-independent equivalents we report are CPU seconds per million
// requests (thread CPU time), the policy's peak metadata footprint (exact,
// from each policy's own accounting), and requests per wall-clock second.
// Expected shape: SCIP sits with the cheap heuristics (LIP/DIP/PIPP/SHiP/
// ASC-IP), clearly cheaper than the learned baselines; its memory is LIP
// plus the two history lists + monitors.
#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  obs::BenchReport report("fig9_resources_insertion");
  const Trace& t = trace_t();
  const std::uint64_t cap = cap_frac(t, kFig8SmallFrac);
  std::vector<std::string> policies{"LRU"};
  for (const auto& n : insertion_policy_names()) policies.push_back(n);

  Table table({"policy", "obj miss", "cpu s/Mreq", "peak metadata",
               "TPS (Mreq/s)"});
  // Resource timing must be serial: one policy at a time, one thread.
  for (const auto& name : policies) {
    auto cache = make_cache(name, cap);
    const auto res = simulate(*cache, t);
    report.add_row(sim_result_row(res));
    const double mreq = static_cast<double>(res.requests) / 1e6;
    table.add_row(
        {name, Table::pct(res.object_miss_ratio()),
         Table::fmt(res.cpu_seconds / mreq, 3),
         Table::bytes(static_cast<double>(res.metadata_peak_bytes)),
         Table::fmt(res.tps() / 1e6, 2)});
  }
  print_block("Fig. 9: insertion-policy resources (CDN-T)", table);
  return write_report(report);
}
