#include "core/scip_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/scip_engine.hpp"

namespace cdn {

namespace {
// Pre-reserve hint for the resident-set slab/index: ~4KiB objects,
// capped for pathological capacities. Layout-only warm-up smoothing.
std::size_t reserve_hint(std::uint64_t capacity_bytes) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(capacity_bytes / 4096 + 1, 1ULL << 16));
}
}  // namespace

AdvisedLruCache::AdvisedLruCache(std::uint64_t capacity_bytes,
                                 std::shared_ptr<InsertionAdvisor> advisor)
    : QueueCache(capacity_bytes), advisor_(std::move(advisor)) {
  if (!advisor_) {
    throw std::invalid_argument("AdvisedLruCache: advisor is required");
  }
  fast_ = dynamic_cast<ScipAdvisor*>(advisor_.get());
  q_.reserve(reserve_hint(capacity_bytes));
}

std::string AdvisedLruCache::name() const { return advisor_->tag(); }

void AdvisedLruCache::prefetch(std::uint64_t id) const noexcept {
  prefetch_hashed(id, hash64(id));
}

void AdvisedLruCache::prefetch_hashed(std::uint64_t /*id*/,
                                      std::uint64_t h) const noexcept {
  q_.prefetch_hashed(h);
  if (fast_ != nullptr) {
    fast_->prefetch_hashed(h);  // final -> direct call
  } else {
    advisor_->prefetch_hashed(h);
  }
}

void AdvisedLruCache::on_evict_hashed(const LruQueue::Node& victim,
                                      std::uint64_t victim_hash) {
  if (fast_ != nullptr) {
    fast_->on_evict_hashed(victim.id, victim.size, victim.insert_pos == 1,
                           victim.hits > 0, victim_hash);
  } else {
    advisor_->on_evict_hashed(victim.id, victim.size, victim.insert_pos == 1,
                              victim.hits > 0, victim_hash);
  }
}

template <typename A>
bool AdvisedLruCache::access_impl(const Request& req, std::uint64_t h,
                                  A& adv) {
  ++tick_;
  if (LruQueue::Node* node = q_.find_hashed(req.id, h)) {
    // PROMOTE = REMOVE + INSERT; the object is NOT written to any history
    // list (Algorithm 1, line 24). The REMOVE + INSERT pair executes as an
    // in-place re-insertion: same slab slot, same index entry — equivalent
    // to the erase + insert + field-restore it replaces, without the two
    // extra index probes and the backward-shift delete.
    const std::uint32_t hits = node->hits + 1;
    const bool mru = adv.choose_mru_for_hit(req, hits);
    LruQueue::Node& n = mru ? q_.reinsert_mru(*node) : q_.reinsert_lru(*node);
    n.hits = hits;
    n.last_tick = tick_;
    // insert_tick is preserved in place; insert_pos is set by reinsert_*:
    // the new mark decides the history list the object lands in when
    // eventually evicted.
    adv.on_request_hashed(req, true, h);
    return true;
  }

  // Victim lookahead: on an evicting miss the first victim is already
  // known — the queue keeps its id in a tail shadow, so naming it costs no
  // node read. Start fetching everything the eviction will touch (the
  // victim node, its history-list index homes, the lists' drop-end
  // records) NOW; the advisor's miss work and the queue's pop then retire
  // on top of those fetches instead of in front of them. This chain —
  // read cold tail node, hash, probe cold ghost index — is serial DRAM
  // latency and measured as the whole SCIP-vs-LRU replay gap.
  const bool evicting =
      !q_.empty() && q_.used_bytes() + req.size > capacity_;
  if (evicting) {
    q_.prefetch_lru_node();
    adv.prefetch_evict_hashed(hash64(q_.lru_id()), q_.lru_insert_pos() == 1);
  }
  adv.on_miss_hashed(req, h);
  if (!fits(req.size)) {
    adv.on_request_hashed(req, false, h);
    return false;
  }
  // make_room(), unrolled so each FOLLOWING victim's lines are hinted
  // before the current victim's history-list add runs. Same loop condition
  // and eviction order as make_room.
  while (!q_.empty() && q_.used_bytes() + req.size > capacity_) {
    std::uint64_t victim_hash = 0;
    const LruQueue::Node victim = q_.pop_lru(&victim_hash);
    if (!q_.empty() && q_.used_bytes() + req.size > capacity_) {
      q_.prefetch_lru_node();
      adv.prefetch_evict_hashed(hash64(q_.lru_id()), q_.lru_insert_pos() == 1);
    }
    adv.on_evict_hashed(victim.id, victim.size, victim.insert_pos == 1,
                        victim.hits > 0, victim_hash);
  }
  const bool mru = adv.choose_mru_for_miss(req);
  LruQueue::Node& n = mru ? q_.insert_mru_hashed(req.id, req.size, h)
                          : q_.insert_lru_hashed(req.id, req.size, h);
  n.insert_tick = n.last_tick = tick_;
  adv.on_request_hashed(req, false, h);
  return false;
}

bool AdvisedLruCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool AdvisedLruCache::access_hashed(const Request& req, std::uint64_t h) {
  return fast_ != nullptr ? access_impl(req, h, *fast_)
                          : access_impl(req, h, *advisor_);
}

// detlint:allow(accounting, fast_ is a non-owning cached downcast of advisor_, whose bytes are charged)
std::uint64_t AdvisedLruCache::metadata_bytes() const {
  return q_.metadata_bytes() + advisor_->metadata_bytes();
}

void AdvisedLruCache::sample_metrics(obs::MetricRegistry& reg) {
  reg.series("cache.objects").push(static_cast<double>(q_.count()));
  reg.series("cache.used_bytes").push(static_cast<double>(q_.used_bytes()));
  if (auto* in = dynamic_cast<obs::Introspectable*>(advisor_.get())) {
    in->sample_metrics(reg);
  }
}

}  // namespace cdn
