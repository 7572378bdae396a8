// FIFO, byte-bounded metadata list ("shadow cache" / history list).
//
// SCIP keeps two of these (H_m and H_l, §3.2): each records the key and
// size of objects evicted from the real cache after being inserted at the
// MRU / LRU position respectively. Each is logically half the size of the
// real cache. Other policies (DIP set-dueling monitors, LeCaR/CACHEUS ghost
// lists, DTA's outcome ghost) reuse the same structure.
//
// Per the paper's ADD function: a new record enters at the MRU (front) end;
// when the list is full the record at the LRU (back) end is dropped; a hit
// DELETEs the record.
//
// Storage mirrors LruQueue: a slab of records with intrusive u32 FIFO links
// plus a free list, indexed by a FlatMap from id to slab slot — ghost
// metadata is written on every eviction and consulted on every miss, so it
// pays no per-record heap allocation (the std::list node per record it
// once used) and no unordered_map bucket chase.
#pragma once

#include <cassert>
#include <cstdint>

#include "util/attr.hpp"
#include "util/flat_map.hpp"

namespace cdn {

namespace audit {
class Inspector;
}  // namespace audit

class GhostList {
  // Record layout first so kPerEntryBytes below can be sizeof-derived.
  static constexpr std::uint32_t kNull = 0xffffffffu;

  // 32 bytes after padding: an aligned slab never straddles a record
  // across two cache lines, so prefetch_rec's single-line hint covers the
  // whole drop-end read. (A 24-byte packed layout was measured slower for
  // exactly that reason: every third record spans two lines.)
  struct Rec {
    std::uint64_t id = 0;
    std::uint64_t size = 0;
    bool tag = false;

   private:
    std::uint32_t prev_ = kNull;  ///< toward front (newer)
    std::uint32_t next_ = kNull;  ///< toward back (older)
    friend class GhostList;
    friend class audit::Inspector;
  };

 public:
  /// `capacity_bytes` bounds the sum of recorded object sizes.
  explicit GhostList(std::uint64_t capacity_bytes);

  /// True if `id` is currently recorded.
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return index_.contains(id);
  }

  /// Records an eviction; drops FIFO-oldest records to respect capacity.
  /// Re-adding an existing id refreshes it to the front. `tag` is an
  /// arbitrary caller-defined bit carried with the record (SCIP tags
  /// whether the victim had been hit during its residency, which routes
  /// the evidence to the miss- or promotion-side weights).
  void add(std::uint64_t id, std::uint64_t size, bool tag = false);

  /// add() with the caller-precomputed hash64(id). Refresh-on-add is a
  /// single index probe (find-or-insert) instead of the erase + insert
  /// pair — ghost metadata is written on every eviction, so this sits
  /// squarely on the miss path. Defined inline below (with erase_hashed
  /// and evict_to_fit) so the host's devirtualized request loop absorbs
  /// the whole ghost transaction without a cross-TU call per probe.
  void add_hashed(std::uint64_t id, std::uint64_t size, bool tag,
                  std::uint64_t h);

  /// Removes the record for `id` (the paper's DELETE). Returns true if it
  /// was present; `size_out` / `tag_out` receive the recorded fields.
  bool erase(std::uint64_t id, std::uint64_t* size_out = nullptr,
             bool* tag_out = nullptr);
  bool erase_hashed(std::uint64_t id, std::uint64_t h,
                    std::uint64_t* size_out = nullptr,
                    bool* tag_out = nullptr);

  /// Pre-sizes the record slab and hash index for `n` records (see
  /// LruQueue::reserve — layout-only, warm-up smoothing).
  void reserve(std::size_t n);

  /// Advisory prefetch of the index home slot (see FlatMap).
  void prefetch_hashed(std::uint64_t h) const noexcept {
    index_.prefetch_hashed(h);
  }

  /// Advisory prefetch of the FIFO-oldest record — the one the next add()
  /// will drop when the list is at capacity.
  void prefetch_oldest() const noexcept { prefetch_rec(tail_); }

  [[nodiscard]] std::size_t count() const noexcept { return index_.size(); }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept {
    return used_bytes_;
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// Metadata footprint estimate (slab record + flat-index share).
  // detlint:allow(accounting, slab_/free_list_/index_ are charged via the sizeof-derived kPerEntryBytes * count())
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept {
    return count() * kPerEntryBytes;
  }

  /// sizeof-derived (slab record + flat-index share, same 3-slot slack
  /// amortization as LruQueue::metadata_bytes) — the historical
  /// hand-counted 48 silently desynchronized from the record layout.
  static constexpr std::uint64_t kPerEntryBytes =
      sizeof(Rec) + 3 * FlatMap<std::uint64_t, std::uint32_t>::kSlotBytes;

  /// Test-only fault injection for the audit harness (see LruQueue).
  void debug_corrupt_used_bytes(std::int64_t delta) noexcept {
    used_bytes_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(used_bytes_) + delta);
  }

 private:
  friend class audit::Inspector;

  std::uint32_t alloc_rec();
  void free_rec(std::uint32_t idx);
  void unlink(std::uint32_t idx);
  void evict_to_fit();

  /// Advisory prefetch of a slab record (FIFO-tail records go untouched
  /// between their add and their eviction, so the eviction read is almost
  /// always a cache miss unless hinted ahead).
  void prefetch_rec(std::uint32_t idx) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (idx != kNull) __builtin_prefetch(&slab_[idx]);
#else
    (void)idx;
#endif
  }

  std::uint64_t capacity_;
  std::uint64_t used_bytes_ = 0;
  std::vector<Rec> slab_;
  std::vector<std::uint32_t> free_list_;
  FlatMap<std::uint64_t, std::uint32_t> index_;
  std::uint32_t head_ = kNull;  ///< front = newest (MRU end)
  std::uint32_t tail_ = kNull;  ///< back = oldest (drop end)
};

// ---- hot-path inline definitions -----------------------------------------

inline CDN_HOT std::uint32_t GhostList::alloc_rec() {
  if (!free_list_.empty()) {
    const std::uint32_t idx = free_list_.back();
    free_list_.pop_back();
    return idx;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

inline CDN_HOT void GhostList::free_rec(std::uint32_t idx) {
  slab_[idx] = Rec{};  // reset for reuse
  free_list_.push_back(idx);
}

inline CDN_HOT void GhostList::unlink(std::uint32_t idx) {
  Rec& r = slab_[idx];
  if (r.prev_ != kNull) {
    slab_[r.prev_].next_ = r.next_;
  } else {
    head_ = r.next_;
  }
  if (r.next_ != kNull) {
    slab_[r.next_].prev_ = r.prev_;
  } else {
    tail_ = r.prev_;
  }
  r.prev_ = r.next_ = kNull;
}

inline CDN_HOT void GhostList::evict_to_fit() {
  while (used_bytes_ > capacity_ && tail_ != kNull) {
    const std::uint32_t idx = tail_;
    const Rec& oldest = slab_[idx];
    // Hint the index home slot and the next-oldest record (needed by
    // unlink now and by the next loop iteration) as soon as their
    // addresses are known; both are cold on the FIFO drop path.
    const std::uint64_t h = hash64(oldest.id);
    index_.prefetch_hashed(h);
    prefetch_rec(oldest.prev_);
    used_bytes_ -= oldest.size;
    index_.erase_hashed(oldest.id, h);
    unlink(idx);
    free_rec(idx);
  }
}

inline CDN_HOT void GhostList::add_hashed(std::uint64_t id,
                                                      std::uint64_t size,
                                  bool tag, std::uint64_t h) {
  if (size > capacity_) {
    // Cannot ever fit; don't thrash the list. Matches the historical
    // erase-then-bail ordering: a stale smaller record for the same id is
    // still dropped.
    erase_hashed(id, h);
    return;
  }
  // The add will usually push used_bytes_ over capacity, and evict_to_fit
  // then reads the FIFO-tail record — cold by construction (untouched since
  // its own add). Start that line toward the cache before the index upsert
  // and the record write, whose latency hides most of the fetch.
  prefetch_rec(tail_);
  bool inserted = false;
  std::uint32_t* slot = index_.upsert_hashed(id, h, &inserted);
  if (inserted) {
    const std::uint32_t idx = alloc_rec();
    *slot = idx;
    Rec& r = slab_[idx];
    r.id = id;
    r.size = size;
    r.tag = tag;
    r.prev_ = kNull;
    r.next_ = head_;
    if (head_ != kNull) slab_[head_].prev_ = idx;
    head_ = idx;
    if (tail_ == kNull) tail_ = idx;
    used_bytes_ += size;
  } else {
    // Refresh in place: same slab slot, same index entry, record moves to
    // the front — behaviorally identical to the erase + re-add it replaces,
    // minus the second index probe and the backward-shift delete.
    const std::uint32_t idx = *slot;
    Rec& r = slab_[idx];
    used_bytes_ -= r.size;
    used_bytes_ += size;
    r.size = size;
    r.tag = tag;
    if (head_ != idx) {
      unlink(idx);
      r.next_ = head_;
      if (head_ != kNull) slab_[head_].prev_ = idx;
      head_ = idx;
      if (tail_ == kNull) tail_ = idx;
    }
  }
  evict_to_fit();
}

inline CDN_HOT bool GhostList::erase_hashed(std::uint64_t id,
                                                        std::uint64_t h,
                                    std::uint64_t* size_out, bool* tag_out) {
  const std::uint32_t* p = index_.find_hashed(id, h);
  if (p == nullptr) return false;
  const std::uint32_t idx = *p;
  const Rec& r = slab_[idx];
  if (size_out) *size_out = r.size;
  if (tag_out) *tag_out = r.tag;
  used_bytes_ -= r.size;
  unlink(idx);
  index_.erase_hashed(id, h);
  free_rec(idx);
  return true;
}

}  // namespace cdn
