// Figure 3: theoretical miss ratios when the first x % of labeled ZRO /
// P-ZRO / both events are force-placed at the LRU position during an LRU
// replay (perfect-knowledge oracle).
//
// Expected shape (paper §2.2): monotone decreasing in x for every mode;
// the combined treatment removes more than either alone on most points,
// and the gains are sub-additive (treating one class perturbs the other).
#include "analysis/oracle_replay.hpp"
#include "analysis/residency.hpp"
#include "bench_harness.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  for (const Trace& t : traces()) {
    const std::uint64_t cap = cap_frac(t, 0.05);
    const auto an = analysis::analyze_zro(t, cap);
    Table table({"x", "MR(ZRO)", "MR(P-ZRO)", "MR(both)"});
    for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const double z = analysis::oracle_replay_miss_ratio(
          t, an, cap, analysis::OracleMode::kZroOnly, frac);
      const double p = analysis::oracle_replay_miss_ratio(
          t, an, cap, analysis::OracleMode::kPzroOnly, frac);
      const double b = analysis::oracle_replay_miss_ratio(
          t, an, cap, analysis::OracleMode::kBoth, frac);
      table.add_row({Table::pct(frac, 0), Table::pct(z), Table::pct(p),
                     Table::pct(b)});
    }
    print_block("Fig. 3 (" + t.name + ", cache = 5% of WSS, LRU base " +
                    Table::pct(an.miss_ratio()) + ")",
                table);
  }
  return 0;
}
