// OrchestratorCache tests: construction contracts, the degraded mode, the
// learned-switch path on a crafted two-policy separation workload, the warm
// hand-off, determinism, the metrics surface, metadata accounting, and the
// shadow lanes' protocol (threads start only when enabled and die with the
// orchestrator, sync points expose exactly what an in-thread replay would,
// destruction drains a half-replayed window, callers on several threads).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/orchestrator.hpp"
#include "core/registry.hpp"
#include "ml/mab.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

Request req(std::uint64_t id, std::uint64_t size) {
  Request r;
  r.id = id;
  r.size = size;
  return r;
}

TEST(Orchestrator, RegistryConstructsWithDefaults) {
  const CachePtr c = make_cache("Orchestrator", 64ULL << 20);
  EXPECT_EQ(c->name(), "Orchestrator");
  (void)c->access(req(1, 4096));
  EXPECT_TRUE(c->contains(1));
  EXPECT_GT(c->metadata_bytes(), 0u);
}

TEST(Orchestrator, CtorRejectsBadParams) {
  OrchestratorParams empty;
  empty.experts.clear();
  EXPECT_THROW(OrchestratorCache(64ULL << 20, empty), std::invalid_argument);

  OrchestratorParams oob;
  oob.initial = oob.experts.size();
  EXPECT_THROW(OrchestratorCache(64ULL << 20, oob), std::invalid_argument);

  OrchestratorParams self;
  self.experts = {"LRU", "Orchestrator"};
  self.initial = 0;
  EXPECT_THROW(OrchestratorCache(64ULL << 20, self), std::invalid_argument);
}

TEST(Orchestrator, SwitchNowRejectsOutOfRangeIndex) {
  OrchestratorCache orch(64ULL << 20);
  EXPECT_THROW(orch.switch_now(99), std::invalid_argument);
}

TEST(Orchestrator, ProbabilitiesStartUniformAndSumToOne) {
  OrchestratorCache orch(64ULL << 20);
  ASSERT_TRUE(orch.orchestration_enabled());
  double sum = 0.0;
  const OrchestratorParams defaults;
  for (std::size_t j = 0; j < defaults.experts.size(); ++j) {
    EXPECT_NEAR(orch.expert_probability(j),
                1.0 / static_cast<double>(defaults.experts.size()), 1e-12);
    sum += orch.expert_probability(j);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(orch.incumbent_regret(), 0.0);
}

// Below the monitor floor the whole shadow apparatus is off and the
// orchestrator IS its initial expert — bitwise, not approximately.
TEST(Orchestrator, DegradedModeMatchesInitialExpertBitwise) {
  const std::uint64_t cap = 1ULL << 20;  // < 2 MiB shadow floor
  OrchestratorCache orch(cap);
  ASSERT_FALSE(orch.orchestration_enabled());
  const OrchestratorParams defaults;
  EXPECT_EQ(orch.live_policy(), defaults.experts[defaults.initial]);

  const CachePtr fixed = make_cache(orch.live_policy(), cap);
  Rng rng(0xde60);
  for (int i = 0; i < 30'000; ++i) {
    const Request r = req(1 + rng.below(2000), 1 + rng.below(8 * 1024));
    ASSERT_EQ(orch.access(r), fixed->access(r)) << "request " << i;
    ASSERT_EQ(orch.used_bytes(), fixed->used_bytes()) << "request " << i;
  }
  EXPECT_EQ(orch.switches(), 0u);
  EXPECT_EQ(orch.scored_windows(), 0u);
}

/// Crafted separation workload: a 64-id hot set accessed in back-to-back
/// pairs (so every policy can promote on the immediate rehit), diluted by
/// ten never-reused scan objects per pair. One cycle touches 704 distinct
/// 8 KiB objects (5.5 MiB), beyond the 4 MiB cache, so plain LRU loses
/// every cross-cycle hot reuse to scan pollution, while S4LRU parks the
/// promoted hot set in its protected segments — a persistent, unambiguous
/// per-window byte-loss gap.
Trace separation_trace(int cycles) {
  Trace t;
  t.name = "lru-vs-s4lru";
  std::uint64_t scan_id = 1'000'000;
  for (int c = 0; c < cycles; ++c) {
    for (std::uint64_t h = 0; h < 64; ++h) {
      t.requests.push_back(req(1 + h, 8 * 1024));
      t.requests.push_back(req(1 + h, 8 * 1024));
      for (int s = 0; s < 10; ++s) {
        t.requests.push_back(req(scan_id++, 8 * 1024));
      }
    }
  }
  return t;
}

OrchestratorParams fast_learner() {
  OrchestratorParams p;
  p.experts = {"LRU", "S4LRU"};
  p.initial = 0;
  p.window = 256;
  p.score_warmup_windows = 2;
  p.min_dwell_windows = 2;
  p.hysteresis = 2;
  p.switch_margin = 0.3;
  return p;
}

TEST(Orchestrator, LearnsToSwitchOffALosingIncumbent) {
  const std::uint64_t cap = 4ULL << 20;
  OrchestratorCache orch(cap, fast_learner());
  ASSERT_TRUE(orch.orchestration_enabled());
  EXPECT_EQ(orch.live_policy(), "LRU");

  const Trace t = separation_trace(40);
  for (const Request& r : t.requests) (void)orch.access(r);

  EXPECT_GT(orch.scored_windows(), 0u);
  EXPECT_GE(orch.switches(), 1u);
  EXPECT_EQ(orch.live_policy(), "S4LRU");
  EXPECT_GT(orch.expert_probability(1), orch.expert_probability(0));
  EXPECT_GE(orch.incumbent_regret(), 0.0);
}

TEST(Orchestrator, SwitchHandsOffResidentsWarm) {
  OrchestratorParams p;
  p.experts = {"LRU", "S4LRU"};
  p.initial = 0;
  OrchestratorCache orch(1ULL << 20, p);  // degraded: pure hand-off test
  for (std::uint64_t id = 1; id <= 50; ++id) {
    (void)orch.access(req(id, 8 * 1024));
  }
  const std::uint64_t used_before = orch.used_bytes();
  ASSERT_EQ(used_before, 50u * 8 * 1024);

  orch.switch_now(1);
  EXPECT_EQ(orch.live_policy(), "S4LRU");
  EXPECT_EQ(orch.switches(), 1u);
  // The hand-off goes through S4LRU's NORMAL admission path, so its
  // segment-local capacities apply (each segment holds capacity/4 = 32 of
  // these objects): the transfer cannot exceed the donor's footprint, and
  // the donor's most-protected half — replayed in every geometric pass —
  // must all survive, stratified into the upper segments.
  EXPECT_LE(orch.used_bytes(), used_before);
  EXPECT_GE(orch.used_bytes(), 25u * 8 * 1024);
  for (std::uint64_t id = 26; id <= 50; ++id) {
    EXPECT_TRUE(orch.contains(id)) << id;
  }
}

TEST(Orchestrator, RerunIsDeterministic) {
  WorkloadSpec spec = cdn_w_like(0.01);
  spec.name = "orch-det";
  const Trace t = generate_trace(spec);
  const auto cap = static_cast<std::uint64_t>(
      0.117 * static_cast<double>(t.working_set_bytes()));
  SimOptions opts;
  opts.window = 2'000;
  opts.collect_policy_metrics = true;

  OrchestratorCache a(cap, fast_learner());
  OrchestratorCache b(cap, fast_learner());
  const SimResult ra = simulate(a, t, opts);
  const SimResult rb = simulate(b, t, opts);
  EXPECT_TRUE(deterministic_equal(ra, rb));
  EXPECT_EQ(ra.metrics_json, rb.metrics_json);
  EXPECT_FALSE(ra.metrics_json.empty());
}

TEST(Orchestrator, SampleMetricsExportsLearnerState) {
  OrchestratorCache orch(4ULL << 20, fast_learner());
  const Trace t = separation_trace(10);
  for (const Request& r : t.requests) (void)orch.access(r);

  obs::MetricRegistry reg;
  orch.sample_metrics(reg);
  EXPECT_EQ(reg.all_series().count("orch.p.LRU"), 1u);
  EXPECT_EQ(reg.all_series().count("orch.p.S4LRU"), 1u);
  EXPECT_EQ(reg.all_series().count("orch.live_idx"), 1u);
  EXPECT_EQ(reg.all_series().count("orch.regret"), 1u);
  EXPECT_EQ(reg.counters().at("orch.switches").value(), orch.switches());
  EXPECT_EQ(reg.counters().at("orch.scored_windows").value(),
            orch.scored_windows());
  EXPECT_EQ(reg.gauges().at("orch.enabled").value(), 1.0);
  const auto doc = obs::json::parse(obs::to_json(reg));
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(obs::validate_metrics_document(*doc).empty());
}

TEST(Orchestrator, MetadataAccountsShadowFootprints) {
  // Enabled: every shadow's index counts; the degraded cache reports only
  // its live expert.
  OrchestratorCache enabled(4ULL << 20, fast_learner());
  OrchestratorCache degraded(1ULL << 20, fast_learner());
  ASSERT_TRUE(enabled.orchestration_enabled());
  ASSERT_FALSE(degraded.orchestration_enabled());
  for (std::uint64_t id = 1; id <= 100; ++id) {
    (void)enabled.access(req(id, 8 * 1024));
    (void)degraded.access(req(id, 8 * 1024));
  }
  EXPECT_GT(enabled.metadata_bytes(), degraded.metadata_bytes());
}

TEST(Orchestrator, MetadataChargesShadowIndexesNotTheirBytes) {
  // Shadows hold no payload, so multi-MB objects must not inflate the
  // orchestrator's metadata: it is exactly the live index, each shadow's
  // index and the window accumulators, rebuilt here from stand-alone
  // experts fed the same requests (exact shadows, no switch).
  constexpr std::uint64_t kCapacity = 64ULL << 20;
  OrchestratorParams params;
  params.experts = {"LRU", "S4LRU"};
  params.initial = 0;
  params.score_warmup_windows = 1 << 30;  // the learner never scores
  OrchestratorCache orch(kCapacity, params);
  ASSERT_TRUE(orch.orchestration_enabled());
  const CachePtr live = make_cache("LRU", kCapacity);
  std::vector<CachePtr> shadows;
  for (const std::string& e : params.experts) {
    shadows.push_back(make_cache(e, kCapacity));
  }

  Rng rng(17);
  for (int i = 0; i < 4'000; ++i) {
    const Request r = req(rng.next() % 200, (1 + rng.next() % 8) << 20);
    (void)orch.access(r);
    (void)live->access(r);
    for (const CachePtr& s : shadows) (void)s->access(r);
  }
  ASSERT_EQ(orch.switches(), 0u);
  ASSERT_GT(orch.used_bytes(), kCapacity / 2);

  std::uint64_t expected = live->metadata_bytes();
  for (const CachePtr& s : shadows) expected += s->metadata_bytes();
  expected += params.experts.size() * sizeof(std::uint64_t);
  expected += ShadowLanes::kRingEntries * sizeof(ShadowLanes::Entry);
  EXPECT_EQ(orch.metadata_bytes(), expected);
  EXPECT_LT(orch.metadata_bytes(), kCapacity / 1024);
}

// ------------------------------------------------------- shadow lanes --

/// Threads of this process, from /proc/self/task; -1 where that is absent.
long thread_count() {
  std::error_code ec;
  long n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

/// Polls until the process has `want` threads: a joined thread may stay
/// listed for a moment after join() returns, until the kernel reaps it.
bool thread_count_settles_at(long want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (thread_count() != want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(OrchestratorLanes, StartOnlyWhenEnabledAndDieWithTheOrchestrator) {
  const long before = thread_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this platform";
  {
    OrchestratorCache degraded(1ULL << 20);  // below monitor_min_bytes
    ASSERT_FALSE(degraded.orchestration_enabled());
    (void)degraded.access(req(1, 4096));
    EXPECT_EQ(thread_count(), before) << "a lane started while disabled";
  }
  {
    OrchestratorCache orch(64ULL << 20);
    ASSERT_TRUE(orch.orchestration_enabled());
    EXPECT_EQ(thread_count(),
              before + static_cast<long>(OrchestratorParams{}.experts.size()));
    for (std::uint64_t id = 1; id <= 100; ++id) {
      (void)orch.access(req(id, 4096));
    }
  }
  EXPECT_TRUE(thread_count_settles_at(before)) << "a lane outlived its cache";
}

TEST(OrchestratorLanes, DestructionMidWindowDrainsUnconsumedEntries) {
  // No sync point is reached before destruction: the window never closes
  // and metadata is never read, so the ring still holds entries the lanes
  // have not replayed (and, past a whole ring, entries the producer waited
  // for). Destruction must drain them and join, without a race (TSan) or
  // a hang; the surviving stand-alone twin shows the stream was sane.
  OrchestratorParams p;
  p.window = 1 << 20;
  Rng rng(91);
  for (const int n : {1, 15, 16, 17, 255, 256, 257, 5'000}) {
    OrchestratorCache orch(8ULL << 20, p);
    ASSERT_TRUE(orch.orchestration_enabled());
    for (int i = 0; i < n; ++i) {
      (void)orch.access(req(1 + rng.below(3'000), 1 + rng.below(16'384)));
    }
    EXPECT_EQ(orch.scored_windows(), 0u);
  }
}

/// The metadata the orchestrator must report with live expert `live` and
/// stand-alone twins of its shadows: every index, the per-expert window
/// counters and the ring.
std::uint64_t expected_metadata(const Cache& live,
                                const std::vector<CachePtr>& shadows) {
  std::uint64_t total = live.metadata_bytes();
  for (const CachePtr& s : shadows) total += s->metadata_bytes();
  total += shadows.size() * sizeof(std::uint64_t);
  total += ShadowLanes::kRingEntries * sizeof(ShadowLanes::Entry);
  return total;
}

TEST(OrchestratorLanes, MetadataMidWindowEqualsStandAloneExperts) {
  // metadata_bytes() is a sync point: whenever it is read, mid-window or
  // not, every shadow has replayed exactly the requests so far, so its
  // index equals a stand-alone expert's that was fed the same requests.
  constexpr std::uint64_t kCapacity = 4ULL << 20;
  OrchestratorParams p;  // LRU, S4LRU, TinyLFU; TinyLFU live
  p.window = 1'000;
  p.score_warmup_windows = 1 << 30;  // windows close, the learner never acts
  OrchestratorCache orch(kCapacity, p);
  ASSERT_TRUE(orch.orchestration_enabled());
  const CachePtr live = make_cache(p.experts[p.initial], kCapacity);
  std::vector<CachePtr> shadows;
  for (const std::string& e : p.experts) {
    shadows.push_back(make_cache(e, kCapacity));
  }
  Rng rng(23);
  int checked = 0;
  for (int i = 1; i <= 6'000; ++i) {
    const Request r = req(1 + rng.below(2'500), 1 + rng.below(16'384));
    ASSERT_EQ(orch.access(r), live->access(r)) << "request " << i;
    for (const CachePtr& s : shadows) (void)s->access(r);
    if (i % 997 == 0 || i == 1 || i == 15 || i == 16 || i == 17) {
      ASSERT_EQ(orch.metadata_bytes(), expected_metadata(*live, shadows))
          << "after request " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 10);
  EXPECT_EQ(orch.switches(), 0u);
}

TEST(OrchestratorLanes, SixExpertPoolScoresLikeAnInThreadReplay) {
  // Six lanes (more than this host may have cores) against a reference
  // that replays six stand-alone experts on this thread and feeds the same
  // window losses to its own Hedge learner: every window's loss vector
  // must match bitwise, so the learners' probabilities must too. Switching
  // is off (a margin above 1 is never reached); the experts ignore seeds.
  constexpr std::uint64_t kCapacity = 3ULL << 20;
  OrchestratorParams p;
  p.experts = {"LRU", "S4LRU", "TinyLFU", "GDSF", "ARC", "2Q"};
  p.initial = 0;
  p.window = 300;
  p.score_warmup_windows = 3;
  p.switch_margin = 2.0;
  OrchestratorCache orch(kCapacity, p);
  ASSERT_TRUE(orch.orchestration_enabled());

  std::vector<CachePtr> experts;
  for (const std::string& e : p.experts) {
    experts.push_back(make_cache(e, kCapacity));
  }
  ml::HedgeBandit ref(p.experts.size(), p.eta, p.weight_floor, p.decay);
  std::vector<std::uint64_t> win_miss(p.experts.size(), 0);
  std::uint64_t win_bytes = 0;
  std::size_t win_reqs = 0;
  int warmup = p.score_warmup_windows;
  std::uint64_t scored = 0;

  const Trace t = separation_trace(12);
  for (const Request& r : t.requests) {
    (void)orch.access(r);
    win_bytes += r.size;  // every request fits
    for (std::size_t j = 0; j < experts.size(); ++j) {
      if (!experts[j]->access(r)) win_miss[j] += r.size;
    }
    if (++win_reqs < p.window) continue;
    std::vector<double> losses(experts.size());
    for (std::size_t j = 0; j < experts.size(); ++j) {
      losses[j] = static_cast<double>(win_miss[j]) /
                  static_cast<double>(win_bytes);
      win_miss[j] = 0;
    }
    win_bytes = 0;
    win_reqs = 0;
    if (warmup > 0) {
      --warmup;
      continue;
    }
    ref.update(losses);
    ++scored;
    ASSERT_EQ(orch.scored_windows(), scored);
    for (std::size_t j = 0; j < experts.size(); ++j) {
      ASSERT_EQ(orch.expert_probability(j), ref.probability(j))
          << "window " << scored << ", expert " << p.experts[j];
    }
  }
  EXPECT_GT(scored, 20u);
  EXPECT_EQ(orch.switches(), 0u);
}

/// A shadow that misses every request and throws on the one with id
/// `poison`, as a cache whose allocation fails would.
class ThrowingCache final : public Cache {
 public:
  ThrowingCache(std::uint64_t capacity, std::uint64_t poison)
      : Cache(capacity), poison_(poison) {}
  [[nodiscard]] std::string name() const override { return "throwing"; }
  bool access(const Request& r) override {
    if (r.id == poison_) throw std::runtime_error("shadow failed");
    return false;
  }
  [[nodiscard]] bool contains(std::uint64_t) const override { return false; }
  [[nodiscard]] std::uint64_t used_bytes() const override { return 0; }

 private:
  std::uint64_t poison_;
};

TEST(OrchestratorLanes, AShadowThatThrowsReachesTheCaller) {
  std::vector<CachePtr> caches;
  caches.push_back(make_cache("LRU", 1ULL << 20));
  caches.push_back(std::make_unique<ThrowingCache>(1ULL << 20, 500));
  ShadowLanes lanes(std::move(caches));
  for (std::uint64_t id = 1; id < 500; ++id) {
    lanes.push(req(id, 10), hash64(id));
  }
  lanes.sync();
  EXPECT_EQ(lanes.miss_bytes(1), 499u * 10);
  // The throw happens on a lane (or on this thread, if it helps); either
  // way it reaches this thread by the next sync point at the latest, and
  // every later wait rethrows it.
  EXPECT_THROW(
      {
        for (std::uint64_t id = 500; id < 2'000; ++id) {
          lanes.push(req(id, 10), hash64(id));
        }
        lanes.sync();
      },
      std::runtime_error);
  EXPECT_THROW(lanes.sync(), std::runtime_error);
}  // and destruction neither throws nor hangs

TEST(OrchestratorLanes, TwoThreadsTakingTurnsEqualOneThread) {
  // The lanes' producer may move between threads, as it does inside a
  // cluster node where callers take turns under the node lock: the lock's
  // acquire/release orders each caller's ring writes before the next
  // caller's publish. Two threads alternating blocks of requests under a
  // cdn::Mutex must reproduce a one-thread run exactly, switches included.
  const std::uint64_t cap = 4ULL << 20;
  const Trace t = separation_trace(40);

  OrchestratorCache solo(cap, fast_learner());
  std::vector<char> solo_hits;
  for (const Request& r : t.requests) solo_hits.push_back(solo.access(r));
  ASSERT_GE(solo.switches(), 1u);

  OrchestratorCache shared(cap, fast_learner());
  std::vector<char> shared_hits(t.requests.size(), 0);
  Mutex mu;
  std::size_t next = 0;  // guarded by mu
  constexpr std::size_t kBlock = 37;  // not a multiple of any stride
  const auto take_turns = [&](std::size_t me) {
    for (;;) {
      bool served = false;
      {
        MutexLock lock(mu);
        if (next >= t.requests.size()) return;
        if ((next / kBlock) % 2 == me) {
          const std::size_t end = std::min(next + kBlock, t.requests.size());
          for (; next < end; ++next) {
            shared_hits[next] = shared.access(t.requests[next]);
          }
          served = true;
        }
      }
      if (!served) std::this_thread::yield();  // the other thread's turn
    }
  };
  std::thread a(take_turns, 0);
  std::thread b(take_turns, 1);
  a.join();
  b.join();

  EXPECT_EQ(shared_hits, solo_hits);
  EXPECT_EQ(shared.switches(), solo.switches());
  EXPECT_EQ(shared.scored_windows(), solo.scored_windows());
  EXPECT_EQ(shared.live_policy(), solo.live_policy());
  EXPECT_EQ(shared.metadata_bytes(), solo.metadata_bytes());
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(shared.expert_probability(j), solo.expert_probability(j));
  }
}

}  // namespace
}  // namespace cdn
