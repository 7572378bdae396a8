// Hot-path index microbenchmark: cdn::FlatMap vs std::unordered_map.
//
// Every simulated request funnels through the id -> slot indexes of
// LruQueue / GhostList (and SCIP-S4LRU's id -> level map), so the map's
// find/insert/erase/touch cost is the simulator's per-request floor. This
// bench measures exactly that mix two ways:
//
//   microbench   a pre-generated op stream (find-hit, find-miss, touch,
//                erase+insert churn) at simulator-realistic occupancy runs
//                through both map types; identical keys, identical order,
//                checksums compared, interleaved best-of-trials wall time.
//                FlatMap must be >= 1.2x the std::unordered_map op
//                throughput or the bench exits non-zero — the index's perf
//                claim, kept enforceable.
//   end-to-end   simulate() replay of LRU and SCIP over the CDN-T-like
//                workload (the indexes under test in their real seats),
//                interleaved best-of-trials requests/sec; SCIP's wall time
//                must stay within 1.5x LRU's at smoke scale (1.75x full) or
//                the bench exits non-zero.
//
// Output: BENCH_hotpath.json (schema "cdn-bench-report") under
// $CDN_BENCH_JSON_DIR (default "."): two microbench rows (policy "FlatMap"
// / "unordered_map", trace "hotpath-mix") and one row per replay policy.
// Exit codes: 0 ok, 1 speedup/cross-check/validation failure, 2 usage.
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "trace/generator.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace cdn {
namespace {

/// --smoke runs enough ops that the timed region spans many scheduler
/// quanta (the speedup gate needs a stable ratio), few enough for a
/// seconds-scale run; its replay half uses a 0.08-scale trace.
constexpr bench::BenchCli kCli{"bench_hotpath",
                               bench::kScaleFlag | bench::kTrialsFlag,
                               {.scale = 0.25, .trials = 5},
                               {.scale = 0.08, .trials = 3}};

/// Microbench size: steady-state live keys (~LruQueue size) and mixed ops
/// per trial.
std::size_t live_keys(const bench::BenchArgs& a) {
  return a.smoke ? 20'000 : 60'000;
}
std::size_t mixed_ops(const bench::BenchArgs& a) {
  return a.smoke ? 1'000'000 : 4'000'000;
}

/// FlatMap must beat std::unordered_map on the op mix by this factor.
constexpr double kMinSpeedup = 1.2;

/// Ratcheted floor on the advisor's overhead: SCIP replay wall time must
/// stay within this factor of LRU's on the same trace (best-of-trials
/// each). The pre-optimization gap was ~2.5x. 1.5 at smoke scale (the
/// CI-enforced floor — ghost state is mostly cache-resident, so the ratio
/// isolates advisor code overhead), 1.75 at full scale (the ghost working
/// set spills the LLC and the ratio additionally carries SCIP's extra cold
/// DRAM lines per miss; measured 1.59-1.60 best-of-5 on the reference
/// host).
double max_scip_ratio(const bench::BenchArgs& a) {
  return a.smoke ? 1.5 : 1.75;
}

// ------------------------------------------------------------ op stream --

enum class Op : std::uint8_t {
  kFindHit,   ///< lookup of a live key (LruQueue::find on a resident id)
  kFindMiss,  ///< lookup of an absent key (every miss consults the index)
  kTouch,     ///< lookup + value write (touch_mru updates the slot index)
  kChurn,     ///< erase live key + insert fresh key (evict + admit)
};

struct OpRec {
  Op op;
  std::uint64_t key;   ///< lookup/erase target
  std::uint64_t key2;  ///< kChurn: the freshly admitted key
};

/// The id a warm fill / op stream uses for logical object `i`. Object ids
/// are "hash of the URL/key in a real deployment" (trace/request.hpp), so
/// the bench spreads its logical counters through hash64 — a bijection, so
/// ids stay distinct. Benchmarking with raw sequential counters instead
/// would hand std::unordered_map two artifacts real ids do not have:
/// libstdc++'s identity hash makes modulo-by-prime nearly free on small
/// keys, and FIFO eviction order becomes sequential-bucket order, which
/// the prefetcher turns into an artificial churn speedup.
std::uint64_t object_id(std::uint64_t i) { return hash64(i); }

/// Pre-generates the op stream so both maps replay byte-identical work and
/// RNG cost stays outside the timed loop. Live keys are managed as a FIFO
/// ring (index i holds the i-th oldest), matching cache churn where the
/// erased id is old and the inserted id is new; fresh admissions use the
/// >= 2^40 logical range the trace generator assigns to one-hit objects.
std::vector<OpRec> make_ops(std::size_t live, std::size_t n_ops,
                            std::uint64_t seed) {
  std::vector<std::uint64_t> ring(live);
  for (std::size_t i = 0; i < live; ++i) ring[i] = object_id(i);
  std::size_t oldest = 0;
  std::uint64_t next_fresh = 1ULL << 40;

  Rng rng(seed);
  std::vector<OpRec> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 50) {  // 50% resident lookups
      ops.push_back({Op::kFindHit, ring[rng.below(live)], 0});
    } else if (dice < 65) {  // 15% miss lookups (ids never inserted)
      ops.push_back(
          {Op::kFindMiss, (1ULL << 62) + rng.next() % (1ULL << 40), 0});
    } else if (dice < 85) {  // 20% touches
      ops.push_back({Op::kTouch, ring[rng.below(live)], 0});
    } else {  // 15% churn: evict the oldest resident, admit a fresh id
      const std::size_t slot = oldest;
      oldest = (oldest + 1) % live;
      ops.push_back({Op::kChurn, ring[slot], object_id(next_fresh)});
      ring[slot] = object_id(next_fresh);
      ++next_fresh;
    }
  }
  return ops;
}

// Uniform adapter so one replay loop serves both map types.
std::uint32_t* lookup(FlatMap<std::uint64_t, std::uint32_t>& m,
                      std::uint64_t k) {
  return m.find(k);
}
std::uint32_t* lookup(std::unordered_map<std::uint64_t, std::uint32_t>& m,
                      std::uint64_t k) {
  const auto it = m.find(k);
  return it == m.end() ? nullptr : &it->second;
}
void put(FlatMap<std::uint64_t, std::uint32_t>& m, std::uint64_t k,
         std::uint32_t v) {
  m.insert(k, v);
}
void put(std::unordered_map<std::uint64_t, std::uint32_t>& m, std::uint64_t k,
         std::uint32_t v) {
  m.emplace(k, v);
}

template <typename M>
std::uint64_t replay_ops(M& m, const std::vector<OpRec>& ops) {
  std::uint64_t checksum = 0;
  for (const OpRec& r : ops) {
    switch (r.op) {
      case Op::kFindHit:
      case Op::kFindMiss: {
        const std::uint32_t* p = lookup(m, r.key);
        checksum += p ? *p : 1;
        break;
      }
      case Op::kTouch: {
        std::uint32_t* p = lookup(m, r.key);
        if (p) checksum += ++*p;
        break;
      }
      case Op::kChurn: {
        m.erase(r.key);
        put(m, r.key2, static_cast<std::uint32_t>(r.key2));
        checksum += r.key2;
        break;
      }
    }
  }
  return checksum;
}

struct MicroTrial {
  double wall_seconds = 0.0;
  std::uint64_t checksum = 0;
};

/// One timed pass of the op stream through a fresh map, after an untimed
/// warm fill to steady-state occupancy (values = slot indexes, as in
/// LruQueue).
template <typename M>
MicroTrial run_micro(const std::vector<OpRec>& ops, std::size_t live) {
  M m;
  for (std::size_t k = 0; k < live; ++k) {
    put(m, object_id(k), static_cast<std::uint32_t>(k));
  }
  Stopwatch sw;
  const std::uint64_t checksum = replay_ops(m, ops);
  return {sw.seconds(), checksum};
}

obs::json::Value micro_row(const std::string& policy, std::size_t n_ops,
                           double tps, std::uint64_t footprint,
                           std::size_t live, std::size_t trials) {
  obs::json::Value row;
  row.set("policy", policy);
  row.set("trace", "hotpath-mix");
  row.set("requests", static_cast<std::uint64_t>(n_ops));
  row.set("tps", tps);
  // Miss-ratio axes do not apply to a raw map benchmark; zero keeps the
  // rows schema-conformant so the trajectory differ can parse them.
  row.set("object_miss_ratio", 0.0);
  row.set("byte_miss_ratio", 0.0);
  row.set("warm_object_miss_ratio", 0.0);
  row.set("warm_byte_miss_ratio", 0.0);
  row.set("metadata_peak_bytes", footprint);
  row.set("live_keys", static_cast<std::uint64_t>(live));
  row.set("trials", static_cast<std::uint64_t>(trials));
  return row;
}

int run(const bench::BenchArgs& args) {
  obs::BenchReport report("hotpath");
  const std::size_t live = live_keys(args);

  // --- Microbench: identical op stream through both map types. ----------
  std::printf("generating %zu ops at %zu live keys...\n", mixed_ops(args),
              live);
  const std::vector<OpRec> ops = make_ops(live, mixed_ops(args), /*seed=*/71);

  using Flat = FlatMap<std::uint64_t, std::uint32_t>;
  using Umap = std::unordered_map<std::uint64_t, std::uint32_t>;

  // Footprints at steady state, for the metadata column: FlatMap's slot
  // array vs unordered_map's nodes + bucket array (estimated: the node
  // layout is libstdc++'s hash node of next-pointer + hash + pair).
  Flat flat_probe;
  Umap umap_probe;
  for (std::size_t k = 0; k < live; ++k) {
    flat_probe.insert(object_id(k), 0);
    umap_probe.emplace(object_id(k), 0);
  }
  const std::uint64_t flat_bytes =
      flat_probe.capacity() * (sizeof(std::uint64_t) + sizeof(std::uint32_t) + 1);
  const std::uint64_t umap_bytes =
      umap_probe.bucket_count() * sizeof(void*) +
      umap_probe.size() *
          (sizeof(std::pair<const std::uint64_t, std::uint32_t>) +
           2 * sizeof(void*));

  // Every trial of either map replays the same op stream, so all must
  // return one checksum: a divergence across trials is nondeterminism in a
  // map, across maps a disagreement between them.
  std::optional<std::uint64_t> checksum;
  bool checksums_agree = true;
  const std::vector<MicroTrial> micro = bench::best_of_interleaved(
      2, args.trials, [&](std::size_t arm) {
        const MicroTrial t =
            arm == 0 ? run_micro<Flat>(ops, live) : run_micro<Umap>(ops, live);
        if (!checksum) checksum = t.checksum;
        checksums_agree = checksums_agree && t.checksum == *checksum;
        return t;
      });
  if (!checksums_agree) {
    std::fprintf(stderr,
                 "FAIL: FlatMap and unordered_map trials disagree on the op "
                 "stream's checksum\n");
    return 1;
  }

  const double n_ops = static_cast<double>(ops.size());
  const double flat_tps = n_ops / micro[0].wall_seconds;
  const double umap_tps = n_ops / micro[1].wall_seconds;
  const double speedup = flat_tps / umap_tps;

  Table table({"index", "Mops/s", "footprint KiB", "speedup"});
  table.add_row({"FlatMap", Table::fmt(flat_tps / 1e6, 1),
                 Table::fmt(static_cast<double>(flat_bytes) / 1024.0, 0),
                 Table::fmt(speedup, 2)});
  table.add_row({"unordered_map", Table::fmt(umap_tps / 1e6, 1),
                 Table::fmt(static_cast<double>(umap_bytes) / 1024.0, 0),
                 "1.00"});
  std::printf("\n== Hot-path index microbench (%zu ops, %zu live keys, "
              "best of %zu) ==\n%s",
              ops.size(), live, args.trials, table.str().c_str());

  obs::json::Value flat_row = micro_row("FlatMap", ops.size(), flat_tps,
                                        flat_bytes, live, args.trials);
  flat_row.set("speedup_vs_unordered_map", speedup);
  report.add_row(std::move(flat_row));
  report.add_row(micro_row("unordered_map", ops.size(), umap_tps, umap_bytes,
                           live, args.trials));

  // --- End-to-end: replay rps with the flat indexes in their real seats. -
  // Replay streams the struct-of-arrays id/size columns (the only fields
  // the queue policies read): 16 bytes of trace traffic per request instead
  // of a 32-byte Request record, and the id column feeds the replay loop's
  // lookahead prefetch. Results are deterministically equal to replaying
  // the AoS trace (test_simulator pins that).
  const Trace trace = generate_trace(cdn_t_like(args.scale));
  const TraceColumns cols =
      to_columns(trace, /*keep_time=*/false, /*keep_next=*/false);
  const std::uint64_t capacity =
      bench::cap_frac(trace, bench::kFig8MediumFrac);
  Table e2e({"policy", "replay rps", "warm obj miss", "metadata KiB"});
  // Interleaved (LRU, SCIP, LRU, SCIP, ...), not one contiguous phase per
  // policy: the ratio gate below divides one wall time by the other, and
  // on a busy or frequency-scaling host phase ordering alone swung the
  // measured ratio by tens of percent.
  constexpr const char* kPolicies[] = {"LRU", "SCIP"};
  const std::vector<SimResult> best = bench::best_of_interleaved(
      2, args.trials, [&](std::size_t p) {
        auto cache = make_cache(kPolicies[p], capacity);
        return simulate(*cache, cols);
      });
  const double lru_wall = best[0].wall_seconds;
  const double scip_wall = best[1].wall_seconds;
  for (std::size_t p = 0; p < 2; ++p) {
    const SimResult& b = best[p];
    e2e.add_row({kPolicies[p], Table::fmt(b.tps(), 0),
                 Table::pct(b.warm_object_miss_ratio()),
                 Table::fmt(static_cast<double>(b.metadata_peak_bytes) /
                                1024.0,
                            0)});
    obs::json::Value row = sim_result_row(b);
    if (p == 1 && lru_wall > 0.0) {
      row.set("scip_vs_lru_wall_ratio", b.wall_seconds / lru_wall);
    }
    report.add_row(std::move(row));
  }
  const double scip_ratio = lru_wall > 0.0 ? scip_wall / lru_wall : 0.0;
  std::printf("\n== End-to-end replay (%s, %zu requests, best of %zu) ==\n%s"
              "SCIP/LRU wall ratio: %.2fx (gate <= %.2fx)\n",
              trace.name.c_str(), trace.size(), args.trials,
              e2e.str().c_str(), scip_ratio, max_scip_ratio(args));

  // --- Enforce the perf claims, validate, write. ------------------------
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: FlatMap speedup %.2fx < %.1fx over "
                 "std::unordered_map on the hot-path mix\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  if (scip_ratio > max_scip_ratio(args)) {
    std::fprintf(stderr,
                 "FAIL: SCIP replay wall time %.2fx LRU's exceeds the "
                 "%.2fx advisor-overhead floor\n",
                 scip_ratio, max_scip_ratio(args));
    return 1;
  }
  return bench::write_report(report);
}

}  // namespace
}  // namespace cdn

int main(int argc, char** argv) {
  const auto args = cdn::bench::parse_args(cdn::kCli, argc, argv);
  return args ? cdn::run(*args) : cdn::bench::kUsageExit;
}
