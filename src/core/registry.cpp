#include "core/registry.hpp"

#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/ascip_cache.hpp"
#include "core/factories.hpp"
#include "core/orchestrator.hpp"
#include "core/scip_engine.hpp"
#include "policies/admission/adaptsize.hpp"
#include "policies/admission/size_bucket.hpp"
#include "policies/admission/tinylfu.hpp"
#include "policies/admission/two_q.hpp"
#include "policies/insertion/bip.hpp"
#include "policies/insertion/daaip.hpp"
#include "policies/insertion/dgippr.hpp"
#include "policies/insertion/dip.hpp"
#include "policies/insertion/dta.hpp"
#include "policies/insertion/lip.hpp"
#include "policies/insertion/pipp.hpp"
#include "policies/insertion/ship.hpp"
#include "policies/replacement/arc.hpp"
#include "policies/replacement/belady.hpp"
#include "policies/replacement/cacheus.hpp"
#include "policies/replacement/gdsf.hpp"
#include "policies/replacement/gl_cache.hpp"
#include "policies/replacement/lhd.hpp"
#include "policies/replacement/lecar.hpp"
#include "policies/replacement/lrb.hpp"
#include "policies/replacement/lirs.hpp"
#include "policies/replacement/lru.hpp"
#include "policies/replacement/lru_k.hpp"
#include "policies/replacement/random_cache.hpp"
#include "policies/replacement/s4lru.hpp"
#include "policies/replacement/sslru.hpp"

namespace cdn {

namespace {

using Factory =
    std::function<CachePtr(std::uint64_t cap, std::uint64_t seed)>;

std::shared_ptr<InsertionAdvisor> scip_advisor(std::uint64_t capacity,
                                               std::uint64_t seed) {
  ScipParams p;
  p.seed = seed;
  return std::make_shared<ScipAdvisor>(capacity, p);
}

const std::unordered_map<std::string, Factory>& factories() {
  static const auto* map = new std::unordered_map<std::string, Factory>{
      // --- Insertion policies on LRU victim selection.
      {"LRU",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<LruCache>(c);
       }},
      {"LIP",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<LipCache>(c);
       }},
      {"BIP",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<BipCache>(c, 1.0 / 32.0, s ^ 0xb1b);
       }},
      {"DIP",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<DipCache>(c, s ^ 0xd1b);
       }},
      {"PIPP",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<PippCache>(c, 0.75, s ^ 0x1b1);
       }},
      {"SHiP",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<ShipCache>(c);
       }},
      {"DTA",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<DtaCache>(c, s ^ 0xd7a);
       }},
      {"DGIPPR",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<DgipprCache>(c, s ^ 0xd61);
       }},
      {"DAAIP",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<DaaipCache>(c);
       }},
      {"ASC-IP",
       [](std::uint64_t c, std::uint64_t) { return make_ascip_lru(c); }},
      {"SCI", [](std::uint64_t c, std::uint64_t s) {
         return make_sci_lru(c, s);
       }},
      {"SCIP",
       [](std::uint64_t c, std::uint64_t s) { return make_scip_lru(c, s); }},
      // --- Replacement algorithms.
      {"LRU-2",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<LruKCache>(c, 2);
       }},
      {"S4LRU",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<S4LruCache>(c);
       }},
      {"SS-LRU",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<SsLruCache>(c, 0.5, s ^ 0x551);
       }},
      {"GDSF",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<GdsfCache>(c);
       }},
      {"LHD",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<LhdCache>(c, s ^ 0x14d);
       }},
      {"LeCaR",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<LeCarCache>(c, s ^ 0x1eca);
       }},
      {"CACHEUS",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<CacheusCache>(c, s ^ 0xcac);
       }},
      {"LRB",
       [](std::uint64_t c, std::uint64_t s) {
         LrbParams p;
         p.seed = s ^ 0x11b;
         return std::make_unique<LrbCache>(c, p);
       }},
      {"GL-Cache",
       [](std::uint64_t c, std::uint64_t s) {
         GlCacheParams p;
         p.seed = s ^ 0x61c;
         return std::make_unique<GlCache>(c, p);
       }},
      {"Belady",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<BeladyCache>(c);
       }},
      {"ARC",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<ArcCache>(c);
       }},
      {"LIRS",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<LirsCache>(c);
       }},
      {"RANDOM",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<RandomCache>(c, s);
       }},
      // --- Admission policies (the paper's S7 related-work family).
      {"2Q",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<TwoQCache>(c);
       }},
      {"TinyLFU",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<TinyLfuCache>(c);
       }},
      {"AdaptSize",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<AdaptSizeCache>(c, s ^ 0xada);
       }},
      {"SB-LRU",
       [](std::uint64_t c, std::uint64_t s) {
         SizeBucketParams p;
         p.seed = s ^ 0x5b1;
         return std::make_unique<SizeBucketLruCache>(c, p);
       }},
      // --- Online policy orchestration (the SCION-style selector).
      {"Orchestrator",
       [](std::uint64_t c, std::uint64_t s) {
         OrchestratorParams p;
         p.seed = s ^ 0x0c1;
         return std::make_unique<OrchestratorCache>(c, p);
       }},
      // --- SCIP/ASC-IP hosted by other victim structures: S4LRU's
      // multi-chain stack (the paper's future-work direction) and the
      // Fig. 12 integrations.
      {"S4LRU-SCIP",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<S4LruCache>(c, scip_advisor(c, s ^ 0x545c));
       }},
      {"LRU-2-SCIP",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<LruKCache>(c, 2,
                                            scip_advisor(c, s ^ 0x5c19));
       }},
      {"LRU-2-ASC-IP",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<LruKCache>(
             c, 2, std::make_shared<AscIpAdvisor>(c));
       }},
      {"LRB-SCIP",
       [](std::uint64_t c, std::uint64_t s) {
         return std::make_unique<LrbCache>(c, LrbParams{},
                                           scip_advisor(c, s ^ 0x11b5));
       }},
      {"LRB-ASC-IP",
       [](std::uint64_t c, std::uint64_t) {
         return std::make_unique<LrbCache>(c, LrbParams{},
                                           std::make_shared<AscIpAdvisor>(c));
       }},
  };
  return *map;
}

}  // namespace

CachePtr make_cache(const std::string& name, std::uint64_t capacity_bytes,
                    std::uint64_t seed) {
  auto it = factories().find(name);
  if (it == factories().end()) {
    throw std::invalid_argument("make_cache: unknown policy '" + name + "'");
  }
  return it->second(capacity_bytes, seed);
}

const std::vector<std::string>& insertion_policy_names() {
  static const auto* names = new std::vector<std::string>{
      "LIP",    "DIP",   "PIPP",   "DTA",  "SHiP",
      "DGIPPR", "DAAIP", "ASC-IP", "SCIP",
  };
  return *names;
}

const std::vector<std::string>& replacement_policy_names() {
  static const auto* names = new std::vector<std::string>{
      "LRU",     "LRU-2", "S4LRU", "SS-LRU", "GDSF",
      "LHD",     "CACHEUS", "LRB", "GL-Cache", "SCIP",
  };
  return *names;
}

std::vector<std::string> all_policy_names() {
  std::vector<std::string> names;
  names.reserve(factories().size());
  for (const auto& [name, f] : factories()) {
    (void)f;
    names.push_back(name);
  }
  return names;
}

}  // namespace cdn
