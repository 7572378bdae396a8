// CDN edge simulation: the TDC-style two-tier stack (OC edge nodes in
// front of a DC shield in front of the origin) as a cluster::Topology,
// replayed in trace order.
//
//   $ ./examples/cdn_edge_simulation [policy] [scale]
//     policy  cache policy for the OC nodes (default "SCIP")
//     scale   trace scale factor (default 0.3)
//
// Prints per-minute BTO bandwidth / latency and the deployment summary the
// paper's Figure 6 reports.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "core/registry.hpp"
#include "trace/generator.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cdn;
  const std::string policy = argc > 1 ? argv[1] : "SCIP";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.3;

  const Trace trace = generate_trace(cdn_w_like(scale));
  std::printf("trace: %zu requests, %.2f GiB WSS; OC policy: %s\n",
              trace.size(),
              static_cast<double>(trace.working_set_bytes()) / (1 << 30),
              policy.c_str());

  // Per-node capacities: each OC holds 1/16 of the working set, the DC 1/48.
  const std::uint64_t oc_capacity = trace.working_set_bytes() / 16;
  std::vector<CachePtr> oc;
  for (std::size_t i = 0; i < 2; ++i) {
    oc.push_back(make_cache(policy, oc_capacity, 100 + i));
  }
  std::vector<CachePtr> dc;
  dc.push_back(make_cache("LRU", trace.working_set_bytes() / 48, 200));
  const cluster::LatencyModel latency;
  cluster::Topology chain(cluster::tdc_chain(std::move(oc), std::move(dc)),
                          cluster::make_backing_store("origin", latency));
  const cluster::ReplayResult res = cluster::replay(chain, trace, latency);

  Table series({"minute", "requests", "OC hit", "DC hit", "BTO Gbps",
                "BTO ratio", "mean latency"});
  for (const cluster::FlowWindow& win : res.windows) {
    series.add_row(
        {std::to_string(win.index), std::to_string(win.requests()),
         Table::pct(win.tiers[0].object_hit_ratio()),
         Table::pct(ratio_or_zero(win.tiers[1].hits, win.requests())),
         Table::fmt(win.bto_gbps(), 3),
         Table::pct(win.bto_ratio()),
         Table::fmt(win.mean_latency_ms(), 1) + " ms"});
  }
  series.print();
  std::printf(
      "\ntotal: BTO ratio %s, mean BTO bandwidth %.3f Gbps, "
      "mean latency %.2f ms\n",
      Table::pct(res.total.bto_ratio()).c_str(), res.mean_bto_gbps(),
      res.total.mean_latency_ms());
  return 0;
}
