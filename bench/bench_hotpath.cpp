// Hot-path index microbenchmark: cdn::FlatMap vs std::unordered_map, and
// SCIP's replay cost against LRU's.
//
// Every simulated request funnels through the id -> slot index of
// LruQueue, so the map's find/insert/erase/touch cost is the simulator's
// per-request floor. This bench measures exactly that mix two ways:
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
//                timed as an interleaved sliced lower envelope (each 20k-
//                request slice's fastest time over the trials, summed);
//                SCIP's wall time must stay within 1.5x LRU's at smoke
//                scale (1.75x full) or the bench exits non-zero. A third
//                arm replays SCIP's recorded history-list operations alone
//                (its DELETE probes and ADDs, with the drops they cause)
//                through the history primitive, sliced at the same
//                request boundaries: the history lists' share of SCIP.
//
// Output: BENCH_hotpath.json (schema "cdn-bench-report") under
// $CDN_BENCH_JSON_DIR (default "."): two microbench rows (policy "FlatMap"
// / "unordered_map", trace "hotpath-mix"), one row per replay policy and
// one "SCIP-history" row.
// Exit codes: 0 ok, 1 speedup/cross-check/validation failure, 2 usage.
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_harness.hpp"
#include "core/registry.hpp"
#include "core/scip_cache.hpp"
#include "core/scip_engine.hpp"
#include "sim/fifo_history.hpp"
#include "trace/generator.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace cdn {
namespace {

/// --smoke runs enough ops that the timed region spans many scheduler
/// quanta (the speedup gate needs a stable ratio), few enough for a
/// seconds-scale run; its replay half uses a 0.08-scale trace. An 80k-
/// request replay is only 4 slices, so smoke takes 30 trials: at 3, a run
/// spent wholly in a noisy host's slow phase kept no fast slice, and 2 to
/// 3 runs in 20 failed the 1.5x gate.
constexpr bench::BenchCli kCli{"bench_hotpath",
                               bench::kScaleFlag | bench::kTrialsFlag,
                               {.scale = 0.25, .trials = 5},
                               {.scale = 0.08, .trials = 30}};

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

// ------------------------------------------------------ history ops --

/// One of SCIP's history-list operations: a miss's DELETE probe of both
/// lists (Algorithm 1, lines 6-13) or an eviction's ADD to one list (lines
/// 15-19), with the hash the host threads through.
struct HistoryOp {
  static constexpr std::uint8_t kProbe = 2;
  std::uint64_t id;
  std::uint64_t size;  ///< ADDs only
  std::uint64_t h;
  std::uint8_t list;  ///< the list an ADD writes (0 = H_m), or kProbe
  bool tag;
};

/// SCIP's history operations over one replay, with the op index at which
/// each request slice begins.
struct HistoryOps {
  std::vector<HistoryOp> ops;
  std::vector<std::size_t> slice_begin;
  std::uint64_t list_capacity = 0;
  std::size_t probes = 0;
};

/// Forwards every hook to a ScipAdvisor and logs its history operations.
class HistoryRecorder final : public InsertionAdvisor {
 public:
  HistoryRecorder(std::uint64_t capacity, std::vector<HistoryOp>* log)
      : scip_(capacity), log_(log) {}

  void on_miss_hashed(const Request& req, std::uint64_t h) override {
    log_->push_back({req.id, 0, h, HistoryOp::kProbe, false});
    scip_.on_miss_hashed(req, h);
  }
  bool choose_mru_for_miss(const Request& req) override {
    return scip_.choose_mru_for_miss(req);
  }
  bool choose_mru_for_hit(const Request& req,
                          std::uint32_t residency_hits) override {
    return scip_.choose_mru_for_hit(req, residency_hits);
  }
  void on_evict_hashed(std::uint64_t id, std::uint64_t size,
                       bool was_mru_inserted, bool had_hits,
                       std::uint64_t h) override {
    log_->push_back({id, size, h,
                     static_cast<std::uint8_t>(was_mru_inserted ? 0 : 1),
                     had_hits});
    scip_.on_evict_hashed(id, size, was_mru_inserted, had_hits, h);
  }
  void on_request_hashed(const Request& req, bool hit,
                         std::uint64_t h) override {
    scip_.on_request_hashed(req, hit, h);
  }
  [[nodiscard]] const char* tag() const override { return "SCIP"; }

 private:
  ScipAdvisor scip_;
  std::vector<HistoryOp>* log_;
};

HistoryOps record_history_ops(const std::vector<TraceColumns>& slices,
                              std::uint64_t capacity) {
  HistoryOps rec;
  rec.list_capacity = ScipAdvisor::history_list_capacity(
      capacity, ScipParams{}.history_fraction);
  AdvisedLruCache cache(capacity,
                        std::make_shared<HistoryRecorder>(capacity, &rec.ops));
  for (const TraceColumns& s : slices) {
    rec.slice_begin.push_back(rec.ops.size());
    (void)simulate(cache, s);
  }
  for (const HistoryOp& op : rec.ops) {
    if (op.list == HistoryOp::kProbe) ++rec.probes;
  }
  return rec;
}

/// One replay of the recorded operations through `hist` (fresh, with the
/// recording's list capacity), timed per request slice. `checksum`
/// receives what the probes found and the records left, so trials can be
/// checked against each other.
std::vector<double> replay_history_ops(const HistoryOps& rec,
                                       FifoHistory<2>& hist,
                                       std::uint64_t* checksum) {
  std::uint64_t sum = 0;
  std::vector<double> slice_s;
  slice_s.reserve(rec.slice_begin.size());
  for (std::size_t k = 0; k < rec.slice_begin.size(); ++k) {
    const std::size_t end = k + 1 < rec.slice_begin.size()
                                ? rec.slice_begin[k + 1]
                                : rec.ops.size();
    const Stopwatch sw;
    for (std::size_t i = rec.slice_begin[k]; i < end; ++i) {
      const HistoryOp& op = rec.ops[i];
      if (op.list == HistoryOp::kProbe) {
        const auto erased = hist.erase_all_hashed(op.id, op.h);
        sum += erased[0].found + 2 * erased[0].tag + 4 * erased[1].found +
               8 * erased[1].tag;
      } else {
        hist.add_hashed(op.list, op.id, op.size, op.tag, op.h);
      }
    }
    slice_s.push_back(sw.seconds());
  }
  *checksum = sum + hist.count();
  return slice_s;
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
  const std::vector<TraceColumns> slices = bench::slice_columns(cols);
  const std::uint64_t capacity =
      bench::cap_frac(trace, bench::kFig8MediumFrac);
  constexpr const char* kPolicies[] = {"LRU", "SCIP"};
  // One whole replay per policy gives each row its counters and metadata
  // peak; every timed sliced replay must reproduce its counters.
  std::vector<SimResult> rows;
  for (const char* policy : kPolicies) {
    auto cache = make_cache(policy, capacity);
    rows.push_back(simulate(*cache, cols));
  }
  const HistoryOps history = record_history_ops(slices, capacity);
  std::optional<std::uint64_t> history_checksum;
  std::size_t history_records = 0;
  std::uint64_t history_bytes = 0;
  bool replays_agree = true;
  // Interleaved (LRU, SCIP, history, LRU, ...), not one contiguous phase
  // per arm: the ratio gate below divides one wall time by another, and on
  // a busy or frequency-scaling host phase ordering alone swung the
  // measured ratio by tens of percent. Whole-replay minima still spread
  // 1.28-1.95x over six runs of one binary; the sliced envelope keeps each
  // slice's fastest time, so a burst of interference costs one slice of
  // one trial, not the trial.
  const std::vector<double> envelope = bench::sliced_envelope_interleaved(
      3, args.trials, [&](std::size_t arm) {
        if (arm == 2) {
          FifoHistory<2> hist(history.list_capacity);
          // ScipAdvisor's own layout-only pre-sizing.
          hist.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
              history.list_capacity / 4096 + 1, 1ULL << 16)));
          std::uint64_t sum = 0;
          std::vector<double> s = replay_history_ops(history, hist, &sum);
          if (!history_checksum) history_checksum = sum;
          replays_agree = replays_agree && sum == *history_checksum;
          history_records = hist.count();
          history_bytes = hist.metadata_bytes();
          return s;
        }
        auto cache = make_cache(kPolicies[arm], capacity);
        const bench::SlicedReplay r = bench::replay_sliced(*cache, slices);
        replays_agree = replays_agree && r.requests == rows[arm].requests &&
                        r.hits == rows[arm].hits &&
                        r.bytes_hit == rows[arm].bytes_hit;
        return r.slice_seconds;
      });
  if (!replays_agree) {
    std::fprintf(stderr,
                 "FAIL: a timed replay's counters differ from the whole "
                 "replay's (or history replays disagree on the checksum)\n");
    return 1;
  }

  Table e2e({"replay", "replay rps", "ns/request", "warm obj miss",
             "metadata KiB"});
  const double n_requests = static_cast<double>(cols.size());
  for (std::size_t p = 0; p < 2; ++p) {
    SimResult& b = rows[p];
    b.wall_seconds = envelope[p];
    e2e.add_row({kPolicies[p], Table::fmt(b.tps(), 0),
                 Table::fmt(envelope[p] * 1e9 / n_requests, 1),
                 Table::pct(b.warm_object_miss_ratio()),
                 Table::fmt(static_cast<double>(b.metadata_peak_bytes) /
                                1024.0,
                            0)});
    obs::json::Value row = sim_result_row(b);
    row.set("timing", "sliced_envelope");
    if (p == 1 && envelope[0] > 0.0) {
      row.set("scip_vs_lru_wall_ratio", envelope[1] / envelope[0]);
    }
    report.add_row(std::move(row));
  }
  const double history_tps = n_requests / envelope[2];
  e2e.add_row({"SCIP history ops", Table::fmt(history_tps, 0),
               Table::fmt(envelope[2] * 1e9 / n_requests, 1), "-",
               Table::fmt(static_cast<double>(history_bytes) / 1024.0, 0)});
  obs::json::Value history_row =
      micro_row("SCIP-history", cols.size(), history_tps, history_bytes,
                history_records, args.trials);
  history_row.set("trace", trace.name);
  history_row.set("ns_per_request", envelope[2] * 1e9 / n_requests);
  history_row.set("probes", static_cast<std::uint64_t>(history.probes));
  history_row.set("adds", static_cast<std::uint64_t>(history.ops.size() -
                                                     history.probes));
  report.add_row(std::move(history_row));

  const double scip_ratio =
      envelope[0] > 0.0 ? envelope[1] / envelope[0] : 0.0;
  std::printf("\n== End-to-end replay (%s, %zu requests, sliced envelope of "
              "%zu trials) ==\n%s"
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
