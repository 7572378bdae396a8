// Ablation: which of SCIP's mechanisms earns its keep?
//   full        — history-list per-object overrides + shadow-monitor duels
//                 + first-hit promotion gating (the shipping default)
//   no-override — duels only (no per-object history adjustment)
//   no-monitor  — per-object overrides only (global weights stay at MRU)
//   SCI         — no promotion treatment (Algorithm 3)
//   history x2  — history lists sized to the full cache instead of half
// Run on all three workloads at the Fig. 8 base size.
#include <memory>

#include "bench_harness.hpp"
#include "core/scip_cache.hpp"
#include "core/scip_engine.hpp"
#include "sim/sweep.hpp"

namespace cdn::bench {
namespace {

CachePtr make_variant(const std::string& variant, std::uint64_t cap) {
  ScipParams p;
  p.seed = 4242;
  if (variant == "no-override") p.per_object_override = false;
  if (variant == "no-monitor") p.use_monitors = false;
  if (variant == "history x2") p.history_fraction = 1.0;
  std::shared_ptr<InsertionAdvisor> adv;
  if (variant == "SCI") {
    adv = std::make_shared<SciAdvisor>(cap, p);
  } else {
    adv = std::make_shared<ScipAdvisor>(cap, p);
  }
  return std::make_unique<AdvisedLruCache>(cap, std::move(adv));
}

}  // namespace
}  // namespace cdn::bench

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  const std::vector<std::string> variants{
      "full", "no-override", "no-monitor", "SCI", "history x2"};
  Table table({"variant", "CDN-T", "CDN-W", "CDN-A"});
  std::vector<SweepJob> jobs;
  for (const auto& v : variants) {
    for (const Trace& t : traces()) {
      const std::uint64_t cap = cap_frac(t, kFig8SmallFrac);
      jobs.push_back(SweepJob{
          [v, cap] { return make_variant(v, cap); }, &t, SimOptions{}});
    }
  }
  const auto res = run_sweep(jobs);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    table.add_row({variants[v],
                   Table::pct(res[v * 3 + 0].object_miss_ratio()),
                   Table::pct(res[v * 3 + 1].object_miss_ratio()),
                   Table::pct(res[v * 3 + 2].object_miss_ratio())});
  }
  print_block("SCIP mechanism ablation (object miss ratio)", table);
  return 0;
}
