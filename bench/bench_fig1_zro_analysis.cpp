// Figure 1: the motivational analysis. For each workload and cache sizes
// A-D = 0.5 / 1 / 5 / 10 % of the working set (the paper's fractions of X),
// under LRU:
//   (a,d) share of ZROs among misses and of P-ZROs among hits,
//   (c,f) share of A-ZROs among ZROs and A-P-ZROs among P-ZROs,
//   (b,e) the LRU miss ratio and the part removable by perfect ZRO / P-ZRO
//         placement (the paper's slashed area), from the oracle replay.
//
// Expected shape: CDN-A has the highest ZRO share; CDN-W the highest P-ZRO
// share of hits (paper: 21.7 % average); shares shrink as the cache grows.
#include "analysis/oracle_replay.hpp"
#include "analysis/residency.hpp"
#include "bench_harness.hpp"

int main() {
  using namespace cdn;
  using namespace cdn::bench;
  for (const Trace& t : traces()) {
    Table table({"size", "LRU miss", "ZRO/miss", "A-ZRO/ZRO", "P-ZRO/hit",
                 "A-P-ZRO/P-ZRO", "reducible(ZRO)", "reducible(both)"});
    for (const double frac : {0.005, 0.01, 0.05, 0.10}) {
      const std::uint64_t cap = cap_frac(t, frac);
      const auto an = analysis::analyze_zro(t, cap);
      const double mr_zro = analysis::oracle_replay_miss_ratio(
          t, an, cap, analysis::OracleMode::kZroOnly, 1.0);
      const double mr_both = analysis::oracle_replay_miss_ratio(
          t, an, cap, analysis::OracleMode::kBoth, 1.0);
      table.add_row({Table::pct(frac, 1), Table::pct(an.miss_ratio()),
                     Table::pct(an.zro_fraction_of_misses()),
                     Table::pct(an.azro_fraction_of_zros()),
                     Table::pct(an.pzro_fraction_of_hits()),
                     Table::pct(an.apzro_fraction_of_pzros()),
                     Table::pct(an.miss_ratio() - mr_zro),
                     Table::pct(an.miss_ratio() - mr_both)});
    }
    print_block("Fig. 1 (" + t.name + ")", table);
  }
  return 0;
}
