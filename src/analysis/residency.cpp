#include "analysis/residency.hpp"

#include <algorithm>
#include <unordered_map>

#include "sim/lru_queue.hpp"

namespace cdn::analysis {

namespace {

/// One closed residency: which miss opened it, which hit (if any) was last.
struct ResidencyRecord {
  std::uint64_t object_id = 0;
  std::size_t miss_index = 0;       ///< request index of the insertion
  std::int64_t last_hit_index = -1; ///< -1 if never hit
  std::uint32_t hits = 0;
  std::size_t order = 0;            ///< per-object residency ordinal
};

}  // namespace

ZroAnalysis analyze_zro(const Trace& trace, std::uint64_t cache_bytes) {
  ZroAnalysis out;
  out.labels.assign(trace.requests.size(), AccessLabel{});
  out.requests = trace.requests.size();

  LruQueue q;
  struct Open {
    std::size_t miss_index;
    std::int64_t last_hit_index;
    std::uint32_t hits;
  };
  std::unordered_map<std::uint64_t, Open> open;
  std::unordered_map<std::uint64_t, std::size_t> residency_count;
  std::vector<ResidencyRecord> records;
  records.reserve(trace.requests.size() / 4);

  auto close = [&](std::uint64_t id) {
    auto it = open.find(id);
    if (it == open.end()) return;
    ResidencyRecord rec;
    rec.object_id = id;
    rec.miss_index = it->second.miss_index;
    rec.last_hit_index = it->second.last_hit_index;
    rec.hits = it->second.hits;
    rec.order = residency_count[id]++;
    records.push_back(rec);
    open.erase(it);
  };

  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const Request& req = trace.requests[i];
    if (LruQueue::Node* n = q.find(req.id)) {
      ++n->hits;
      q.touch_mru(*n);
      auto& o = open.at(req.id);
      ++o.hits;
      o.last_hit_index = static_cast<std::int64_t>(i);
      ++out.hits;
      continue;
    }
    out.labels[i].is_miss = true;
    ++out.misses;
    if (req.size > cache_bytes) continue;  // bypass: no residency
    while (q.used_bytes() + req.size > cache_bytes && !q.empty()) {
      close(q.pop_lru().id);
    }
    q.insert_mru(req.id, req.size);
    open[req.id] = Open{i, -1, 0};
  }
  // Close residencies alive at end of trace.
  while (!q.empty()) close(q.pop_lru().id);

  // Per-object suffix pass: does any LATER residency of this object have a
  // hit? records are in eviction order, not per-object order, so group by
  // object first.
  std::unordered_map<std::uint64_t, std::vector<const ResidencyRecord*>>
      by_object;
  for (const auto& rec : records) by_object[rec.object_id].push_back(&rec);
  for (auto& [id, recs] : by_object) {
    (void)id;
    std::sort(recs.begin(), recs.end(),
              [](const ResidencyRecord* a, const ResidencyRecord* b) {
                return a->order < b->order;
              });
    bool later_hit = false;
    for (std::size_t k = recs.size(); k-- > 0;) {
      const ResidencyRecord& rec = *recs[k];
      if (rec.hits == 0) {
        out.labels[rec.miss_index].is_zro = true;
        ++out.zro_events;
        if (later_hit) {
          out.labels[rec.miss_index].is_azro = true;
          ++out.azro_events;
        }
      } else {
        const auto hit_idx = static_cast<std::size_t>(rec.last_hit_index);
        out.labels[hit_idx].is_pzro = true;
        ++out.pzro_events;
        if (later_hit) {
          out.labels[hit_idx].is_apzro = true;
          ++out.apzro_events;
        }
      }
      if (rec.hits > 0) later_hit = true;
    }
  }
  return out;
}

}  // namespace cdn::analysis
