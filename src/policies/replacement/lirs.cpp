#include "policies/replacement/lirs.hpp"

#include <algorithm>

namespace cdn {

LirsCache::LirsCache(std::uint64_t capacity_bytes, double hir_frac)
    : Cache(capacity_bytes),
      hir_frac_(std::clamp(hir_frac, 0.01, 0.5)),
      lir_cap_(static_cast<std::uint64_t>(
          (1.0 - hir_frac_) * static_cast<double>(capacity_bytes))) {}

bool LirsCache::contains(std::uint64_t id) const {
  auto it = meta_.find(id);
  return it != meta_.end() && it->second.state != State::kHirNonResident;
}

void LirsCache::prune_stack() {
  // The stack bottom must be a LIR block; anything colder has proven its
  // inter-reference recency too high and loses its stack position.
  while (!stack_.empty()) {
    const std::uint64_t bottom = stack_.lru_id();
    auto it = meta_.find(bottom);
    if (it != meta_.end() && it->second.state == State::kLir) return;
    stack_.erase(bottom);
    if (it != meta_.end()) {
      it->second.in_stack = false;
      if (it->second.state == State::kHirNonResident) meta_.erase(it);
    }
  }
}

void LirsCache::demote_coldest_lir() {
  // A miss admits without pruning, so a HIR block can sit at the bottom
  // here; left there, it would stop this and every later demotion while
  // the caller's loop waits for LIR bytes to fall.
  prune_stack();
  if (stack_.empty()) return;
  const std::uint64_t bottom = stack_.lru_id();
  auto it = meta_.find(bottom);
  if (it == meta_.end() || it->second.state != State::kLir) return;
  it->second.state = State::kHirResident;
  lir_bytes_ -= it->second.size;
  stack_.erase(bottom);
  it->second.in_stack = false;
  queue_.insert_mru(bottom, it->second.size);
  it->second.in_queue = true;
  prune_stack();
}

void LirsCache::evict_from_queue() {
  if (queue_.empty()) {
    // No resident HIR blocks: demote the coldest LIR into Q first.
    demote_coldest_lir();
    if (queue_.empty()) return;
  }
  const LruQueue::Node victim = queue_.pop_lru();
  auto it = meta_.find(victim.id);
  if (it == meta_.end()) return;
  it->second.in_queue = false;
  resident_bytes_ -= it->second.size;
  if (it->second.in_stack) {
    it->second.state = State::kHirNonResident;  // keeps its stack history
  } else {
    meta_.erase(it);
  }
}

void LirsCache::limit_nonresident() {
  // Bound the stack's ghost population (classic LIRS bounds non-resident
  // HIR entries; we allow ~2x the resident object count).
  const std::size_t limit =
      2 * (queue_.count() + static_cast<std::size_t>(
                                lir_bytes_ / std::max<std::uint64_t>(
                                                 1, lir_cap_ /
                                                        std::max<std::size_t>(
                                                            stack_.count(),
                                                            1)))) +
      1024;
  while (stack_.count() > limit && !stack_.empty()) {
    const std::uint64_t bottom = stack_.lru_id();
    auto it = meta_.find(bottom);
    if (it != meta_.end() && it->second.state == State::kLir) break;
    stack_.erase(bottom);
    if (it != meta_.end()) {
      it->second.in_stack = false;
      if (it->second.state == State::kHirNonResident) meta_.erase(it);
    }
  }
}

bool LirsCache::access(const Request& req) {
  ++tick_;
  auto it = meta_.find(req.id);

  // --- Hit on a LIR block.
  if (it != meta_.end() && it->second.state == State::kLir) {
    stack_.touch_mru(req.id);
    prune_stack();
    return true;
  }
  // --- Hit on a resident HIR block.
  if (it != meta_.end() && it->second.state == State::kHirResident) {
    if (it->second.in_stack) {
      // Its IRR beats the coldest LIR block: swap roles.
      stack_.touch_mru(req.id);
      it->second.state = State::kLir;
      lir_bytes_ += it->second.size;
      queue_.erase(req.id);
      it->second.in_queue = false;
      while (lir_bytes_ > lir_cap_) demote_coldest_lir();
      prune_stack();
    } else {
      stack_.insert_mru(req.id, it->second.size);
      it->second.in_stack = true;
      queue_.touch_mru(req.id);
    }
    return true;
  }

  // --- Miss.
  if (!fits(req.size)) return false;
  while (resident_bytes_ + req.size > capacity_ &&
         (queue_.count() + stack_.count()) > 0) {
    evict_from_queue();
  }

  // Eviction can prune THIS id's non-resident ghost record from the stack
  // (demote_coldest_lir -> prune_stack erases ghost meta_ entries), which
  // invalidates the iterator obtained before the loop — re-resolve it. A
  // pruned ghost simply means the reuse history is lost: fresh miss.
  it = meta_.find(req.id);
  const bool was_ghost =
      it != meta_.end() && it->second.state == State::kHirNonResident;
  if (was_ghost && it->second.in_stack) {
    // Reuse distance within the stack: admit directly as LIR.
    stack_.touch_mru(req.id);
    it->second.state = State::kLir;
    it->second.size = req.size;
    resident_bytes_ += req.size;
    lir_bytes_ += req.size;
    while (lir_bytes_ > lir_cap_) demote_coldest_lir();
    prune_stack();
  } else if (lir_bytes_ + req.size <= lir_cap_) {
    // Bootstrap: fill the LIR set before using the HIR queue.
    Meta m{State::kLir, req.size, true, false};
    meta_[req.id] = m;
    stack_.insert_mru(req.id, req.size);
    resident_bytes_ += req.size;
    lir_bytes_ += req.size;
  } else {
    Meta m{State::kHirResident, req.size, true, true};
    meta_[req.id] = m;
    stack_.insert_mru(req.id, req.size);
    queue_.insert_mru(req.id, req.size);
    resident_bytes_ += req.size;
  }
  limit_nonresident();
  return false;
}

std::uint64_t LirsCache::metadata_bytes() const {
  return stack_.metadata_bytes() + queue_.metadata_bytes() +
         meta_.size() * (sizeof(Meta) + 48);
}

void LirsCache::sample_metrics(obs::MetricRegistry& reg) {
  reg.series("lirs.lir_bytes").push(static_cast<double>(lir_bytes_));
  reg.series("lirs.hir_resident_bytes")
      .push(static_cast<double>(resident_bytes_ - lir_bytes_));
  reg.series("lirs.stack_entries").push(static_cast<double>(stack_.count()));
  reg.series("lirs.queue_entries").push(static_cast<double>(queue_.count()));
  reg.series("lirs.tracked_objects").push(static_cast<double>(meta_.size()));
}

}  // namespace cdn
