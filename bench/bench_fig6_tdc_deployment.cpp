// Figure 6: the TDC production deployment — BTO bandwidth, BTO ratio, and
// mean user access latency, before (LRU) vs after (SCIP on the cache-layer
// nodes).
//
// Paper: BTO ratio 8.87 % -> 6.59 % (-25.7 % BTO traffic), latency -26.1 %.
// We run the simulated two-layer TDC stack on the CDN-W-like workload with
// SCIP replacing LRU's insertion/promotion policy on the OC cache nodes
// (the paper's deployment swaps exactly that component on the storage
// nodes). The absolute ratios differ — our cluster is 6 orders of magnitude
// smaller — but the direction and a double-digit relative reduction of BTO
// traffic and latency reproduce. EXPERIMENTS.md discusses the layer
// interaction we found when enabling SCIP on both layers at once.
#include "bench_common.hpp"

#include "cluster/topology.hpp"
#include "core/factories.hpp"
#include "policies/replacement/lru.hpp"

namespace cdn::bench {
namespace {

/// Two OC nodes (LRU, or SCIP on the cache layer) in front of one LRU DC,
/// replayed in trace order.
cluster::ReplayResult run_chain(const Trace& t, bool scip) {
  std::vector<CachePtr> oc;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::uint64_t cap = 90ULL << 20;
    oc.push_back(scip ? make_scip_lru(cap, 100 + i)
                      : std::make_unique<LruCache>(cap));
  }
  std::vector<CachePtr> dc;
  dc.push_back(std::make_unique<LruCache>(32ULL << 20));
  const cluster::LatencyModel latency;
  cluster::Topology chain(cluster::tdc_chain(std::move(oc), std::move(dc)),
                          cluster::make_backing_store("origin", latency));
  return cluster::replay(chain, t, latency);
}

void BM_Fig6(benchmark::State& state) {
  for (auto _ : state) {
    const Trace& t = trace_w();
    const cluster::ReplayResult r_before = run_chain(t, false);
    const cluster::ReplayResult r_after = run_chain(t, true);

    // (a) time series, one row per monitoring window.
    Table series({"window", "BTO Gbps (LRU)", "BTO Gbps (SCIP)",
                  "BTO ratio (LRU)", "BTO ratio (SCIP)", "lat ms (LRU)",
                  "lat ms (SCIP)"});
    // Both arms replay the same trace, so their windows line up.
    for (std::size_t w = 0; w < r_before.windows.size(); ++w) {
      const cluster::FlowWindow& wb = r_before.windows[w];
      const cluster::FlowWindow& wa = r_after.windows[w];
      series.add_row({std::to_string(wb.index),
                      Table::fmt(wb.bto_gbps(), 3),
                      Table::fmt(wa.bto_gbps(), 3),
                      Table::pct(wb.bto_ratio()), Table::pct(wa.bto_ratio()),
                      Table::fmt(wb.mean_latency_ms(), 1),
                      Table::fmt(wa.mean_latency_ms(), 1)});
    }
    print_block("Fig. 6 time series (CDN-W-like, 1-minute windows)", series);

    // (b) deployment summary.
    Table summary({"metric", "before (LRU)", "after (SCIP)", "delta"});
    auto rel = [](double b, double a) {
      return b != 0.0 ? Table::pct((a - b) / b) : std::string("n/a");
    };
    const cluster::FlowWindow& before = r_before.total;
    const cluster::FlowWindow& after = r_after.total;
    summary.add_row({"BTO ratio", Table::pct(before.bto_ratio()),
                     Table::pct(after.bto_ratio()),
                     rel(before.bto_ratio(), after.bto_ratio())});
    summary.add_row(
        {"BTO bandwidth (Gbps)", Table::fmt(r_before.mean_bto_gbps(), 3),
         Table::fmt(r_after.mean_bto_gbps(), 3),
         rel(r_before.mean_bto_gbps(), r_after.mean_bto_gbps())});
    summary.add_row(
        {"mean latency (ms)", Table::fmt(before.mean_latency_ms(), 2),
         Table::fmt(after.mean_latency_ms(), 2),
         rel(before.mean_latency_ms(), after.mean_latency_ms())});
    print_block("Fig. 6 summary (paper: BTO 8.87%->6.59%, latency -26.1%)",
                summary);

    state.counters["bto_before"] = before.bto_ratio();
    state.counters["bto_after"] = after.bto_ratio();
    state.counters["lat_before_ms"] = before.mean_latency_ms();
    state.counters["lat_after_ms"] = after.mean_latency_ms();
  }
}
BENCHMARK(BM_Fig6)->Iterations(1)->Unit(benchmark::kSecond);

}  // namespace
}  // namespace cdn::bench

BENCHMARK_MAIN();
