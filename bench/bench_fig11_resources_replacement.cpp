// Figure 11: resource consumption of the replacement algorithms on CDN-T —
// CPU cost, peak metadata memory, TPS (same methodology as Fig. 9).
//
// Expected shape: SCIP slightly above the trivial heuristics (S4LRU, GDSF)
// in CPU, far below the learned policies (LRB, GL-Cache); insertion
// efficiency below LRU/S4LRU but above the samplers and learners.
#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  const Trace& t = trace_t();
  const std::uint64_t cap = cap_frac(t, kFig8SmallFrac);
  Table table({"policy", "obj miss", "cpu s/Mreq", "peak metadata",
               "TPS (Mreq/s)"});
  for (const auto& name : replacement_policy_names()) {
    auto cache = make_cache(name, cap);
    const auto res = simulate(*cache, t);
    const double mreq = static_cast<double>(res.requests) / 1e6;
    table.add_row(
        {name, Table::pct(res.object_miss_ratio()),
         Table::fmt(res.cpu_seconds / mreq, 3),
         Table::bytes(static_cast<double>(res.metadata_peak_bytes)),
         Table::fmt(res.tps() / 1e6, 2)});
  }
  print_block("Fig. 11: replacement-algorithm resources (CDN-T)", table);
  return 0;
}
