// FIFO, byte-bounded history lists ("shadow caches" / ghost lists) over one
// shared index.
//
// A history list records the id and size of objects a cache evicted, in
// eviction order, within a byte budget. SCIP keeps two (H_m and H_l, §3.2:
// objects evicted after an MRU / LRU insertion, each logically half the
// cache); ARC keeps B1 and B2, LeCaR and CACHEUS one ghost per expert, 2Q
// keeps A1out and ASC-IP keeps H_l. The paper's operations:
//
//   ADD     a record enters at the newest end; while the list is over its
//           budget, its oldest record is dropped. Re-adding an id refreshes
//           its record to the newest end. An object larger than the budget
//           is not recorded, and its stale record in that list is erased.
//   DELETE  a history hit erases the record.
//
// Layout. Each list is a ring of 24-byte records {id, size, hash tag, live,
// caller tag} in insertion order. A DELETE or a refresh clears `live` (a
// tombstone) instead of unlinking, and the drop cursor skips tombstones as
// it walks the ring from the oldest end: records carry no links, and a drop
// reads the ring in order. A full ring is rewritten without its tombstones,
// into a ring twice as large when more than half of it is live.
//
// The lists of one host (one or two) share one open-addressing index of
// 8-byte slots {32-bit hash tag, list bit | ring position}: linear probing
// from `tag & mask`, grown past 1/2 load, backward-shift deletion that
// finds each slot's home from its tag. A tag match is confirmed against the
// ring record's id. So a host that probes both its lists for one id (SCIP's
// DELETE on a miss) walks one probe run, and one prefetched index line
// covers both lists. Each record keeps its hash tag, so a drop or a ring
// rewrite finds the record's slot without rehashing the id, and a drop
// hints the index home of the record kDropLookahead drops ahead: there is
// no pointer chase on the drop path.
//
// Index positions are logical ring positions (mod 2^30): the ring slot of a
// position is `pos & (ring size - 1)`. A rewrite gives the surviving
// records new positions just past the old window, so a slot already
// rewritten never matches a position still to be rewritten.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "util/attr.hpp"
#include "util/rng.hpp"

namespace cdn {

namespace audit {
class Inspector;
}  // namespace audit

template <std::size_t kLists>
class FifoHistory {
  static_assert(kLists == 1 || kLists == 2, "the index slot has one list bit");

  struct Rec {
    std::uint64_t id = 0;
    std::uint64_t size = 0;
    std::uint32_t htag = 0;  ///< low 32 bits of the id's hash (index tag)
    bool live = false;       ///< false: a tombstone the drop cursor skips
    bool tag = false;        ///< the caller's bit
  };
  static_assert(sizeof(Rec) == 24);

  struct Slot {
    std::uint32_t tag;
    std::uint32_t ref;  ///< kEmpty, or list bit | logical ring position
  };
  static_assert(sizeof(Slot) == 8);

 public:
  /// What a DELETE found in one list.
  struct Erased {
    bool found = false;
    bool tag = false;
    std::uint64_t size = 0;
  };

  /// `capacity_bytes` bounds each list's sum of recorded object sizes.
  explicit FifoHistory(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// True if `id` is recorded in `list`.
  [[nodiscard]] bool contains(std::size_t list, std::uint64_t id) const {
    return contains_hashed(list, id, hash64(id));
  }
  [[nodiscard]] bool contains_hashed(std::size_t list, std::uint64_t id,
                                     std::uint64_t h) const {
    return find(list, id, tag_of(h)) != kNone;
  }

  /// ADD to `list`; drops that list's oldest records to respect capacity.
  /// `tag` is an arbitrary caller-defined bit carried with the record (SCIP
  /// tags whether the victim had been hit during its residency).
  void add(std::size_t list, std::uint64_t id, std::uint64_t size,
           bool tag = false) {
    add_hashed(list, id, size, tag, hash64(id));
  }
  /// add() with the caller-precomputed hash64(id) (or any hash the caller
  /// uses consistently for this id: only its low 32 bits are read).
  void add_hashed(std::size_t list, std::uint64_t id, std::uint64_t size,
                  bool tag, std::uint64_t h);

  /// DELETE from `list`. Returns true if the record was present;
  /// `size_out` / `tag_out` receive its fields.
  bool erase(std::size_t list, std::uint64_t id,
             std::uint64_t* size_out = nullptr, bool* tag_out = nullptr) {
    return erase_hashed(list, id, hash64(id), size_out, tag_out);
  }
  bool erase_hashed(std::size_t list, std::uint64_t id, std::uint64_t h,
                    std::uint64_t* size_out = nullptr,
                    bool* tag_out = nullptr);

  /// DELETE from every list, in one probe run.
  std::array<Erased, kLists> erase_all(std::uint64_t id) {
    return erase_all_hashed(id, hash64(id));
  }
  std::array<Erased, kLists> erase_all_hashed(std::uint64_t id,
                                              std::uint64_t h);

  /// Pre-sizes each ring and the index for `n` records per list
  /// (layout-only warm-up smoothing; see LruQueue::reserve).
  void reserve(std::size_t n);

  /// Advisory prefetch of the index home line of a hash: the line every
  /// list's probe for that id starts on.
  void prefetch_hashed(std::uint64_t h) const noexcept {
    if (!slots_.empty()) hint(&slots_[tag_of(h) & mask_]);
  }

  [[nodiscard]] std::size_t count(std::size_t list) const noexcept {
    return rings_[list].live;
  }
  /// Records over all lists.
  [[nodiscard]] std::size_t count() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t used_bytes(std::size_t list) const noexcept {
    return rings_[list].used;
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// Metadata footprint estimate over all lists.
  // detlint:allow(accounting, rings_ and slots_ are charged per live record through the sizeof-derived kPerEntryBytes)
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept {
    return count() * kPerEntryBytes;
  }

  /// sizeof-derived: the ring record plus three index slots, the slack
  /// amortization LruQueue::metadata_bytes uses (max load 1/2 with
  /// doubling keeps the index between 1/4 and 1/2 full).
  static constexpr std::uint64_t kPerEntryBytes =
      sizeof(Rec) + 3 * sizeof(Slot);

  /// Test-only fault injection for the audit harness (see LruQueue).
  void debug_corrupt_used_bytes(std::size_t list, std::int64_t delta) noexcept {
    rings_[list].used = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rings_[list].used) + delta);
  }

 private:
  friend class audit::Inspector;

  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::uint32_t kListBit = 1u << 31;
  static constexpr std::uint32_t kPosMask = (1u << 30) - 1;
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinRing = 16;
  static constexpr std::size_t kMaxRing = std::size_t{1} << 29;
  static constexpr std::size_t kMinSlots = 16;
  /// A drop hints the index home of the record this many drops ahead, and
  /// the ring record twice as far ahead.
  static constexpr std::uint32_t kDropLookahead = 8;

  struct Ring {
    std::vector<Rec> recs;   ///< power-of-two length, or empty
    std::uint32_t mask = 0;  ///< recs.size() - 1
    std::uint32_t head = 0;  ///< logical position of the oldest record
    std::uint32_t tail = 0;  ///< logical position the next add writes
    std::uint64_t used = 0;  ///< sum of live record sizes
    std::size_t live = 0;

    Rec& at(std::uint32_t pos) noexcept { return recs[pos & mask]; }
    const Rec& at(std::uint32_t pos) const noexcept {
      return recs[pos & mask];
    }
  };

  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t h) noexcept {
    return static_cast<std::uint32_t>(h);
  }
  [[nodiscard]] static std::uint32_t ref_of(std::size_t list,
                                            std::uint32_t pos) noexcept {
    return (list != 0 ? kListBit : 0u) | (pos & kPosMask);
  }
  [[nodiscard]] static std::size_t list_of(std::uint32_t ref) noexcept {
    return ref >> 31;
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & mask_;
  }

  [[nodiscard]] std::size_t find(std::size_t list, std::uint64_t id,
                                 std::uint32_t t) const noexcept;
  /// The slot pointing at `list`'s record at logical position `pos`.
  [[nodiscard]] std::size_t slot_of(std::size_t list, std::uint32_t t,
                                    std::uint32_t pos) const noexcept;
  void erase_slot(std::size_t i) noexcept;
  void drop_to_fit(std::size_t list) noexcept;
  static void hint(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }
  void grow_index(std::size_t n);
  void rewrite_ring(std::size_t list);

  std::uint64_t capacity_;
  std::array<Ring, kLists> rings_{};
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  ///< used slots == live records over all lists
};

// ---- hot-path inline definitions -----------------------------------------

template <std::size_t kLists>
inline CDN_HOT std::size_t FifoHistory<kLists>::find(
    std::size_t list, std::uint64_t id, std::uint32_t t) const noexcept {
  if (size_ == 0) return kNone;
  for (std::size_t i = t & mask_;; i = next(i)) {
    const Slot s = slots_[i];
    if (s.ref == kEmpty) return kNone;
    if (s.tag == t && list_of(s.ref) == list &&
        rings_[list].at(s.ref).id == id) {
      return i;
    }
  }
}

template <std::size_t kLists>
inline CDN_HOT std::size_t FifoHistory<kLists>::slot_of(
    std::size_t list, std::uint32_t t, std::uint32_t pos) const noexcept {
  const std::uint32_t want = ref_of(list, pos);
  std::size_t i = t & mask_;
  while (slots_[i].ref != want) i = next(i);
  return i;
}

template <std::size_t kLists>
inline CDN_HOT void FifoHistory<kLists>::erase_slot(std::size_t i) noexcept {
  // Shift the rest of the probe run back over the hole (FlatMap's
  // tombstone-free deletion); a slot's home is its tag & mask.
  std::size_t hole = i;
  for (std::size_t j = next(hole); slots_[j].ref != kEmpty; j = next(j)) {
    const std::size_t home = slots_[j].tag & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].ref = kEmpty;
  --size_;
}

template <std::size_t kLists>
inline CDN_HOT void FifoHistory<kLists>::drop_to_fit(
    std::size_t list) noexcept {
  Ring& r = rings_[list];
  while (r.used > capacity_) {
    const std::uint32_t pos = r.head++;
    const Rec& oldest = r.at(pos);
    if (!oldest.live) continue;
    if (r.tail - r.head > kDropLookahead) {
      // Hint the index home of a later drop, and the ring line that drop
      // will read its tag from.
      hint(&slots_[r.at(r.head + kDropLookahead).htag & mask_]);
      hint(&r.at(r.head + 2 * kDropLookahead));
    }
    r.used -= oldest.size;
    --r.live;
    erase_slot(slot_of(list, oldest.htag, pos));
  }
}

template <std::size_t kLists>
inline CDN_HOT void FifoHistory<kLists>::add_hashed(std::size_t list,
                                                    std::uint64_t id,
                                                    std::uint64_t size,
                                                    bool tag,
                                                    std::uint64_t h) {
  assert(list < kLists);
  if (size > capacity_) {
    // Cannot ever fit; don't thrash the list. A stale smaller record for
    // the same id in this list is still dropped.
    erase_hashed(list, id, h);
    return;
  }
  // Make room first: both may move slots, and the probe below must see
  // the final layout.
  if ((size_ + 1) * 2 > slots_.size()) {
    grow_index(slots_.empty() ? kMinSlots : slots_.size() * 2);
  }
  Ring& r = rings_[list];
  if (r.tail - r.head == r.recs.size()) rewrite_ring(list);

  const std::uint32_t t = tag_of(h);
  std::size_t i = t & mask_;
  for (;; i = next(i)) {
    Slot& s = slots_[i];
    if (s.ref == kEmpty) {
      s.tag = t;
      ++size_;
      ++r.live;
      break;
    }
    if (s.tag == t && list_of(s.ref) == list && r.at(s.ref).id == id) {
      // Refresh: the old record becomes a tombstone, the slot moves to the
      // new one — the erase + re-add it stands for, in one probe.
      Rec& old = r.at(s.ref);
      old.live = false;
      r.used -= old.size;
      break;
    }
  }
  const std::uint32_t pos = r.tail++;
  r.at(pos) = Rec{id, size, t, true, tag};
  r.used += size;
  slots_[i].ref = ref_of(list, pos);
  drop_to_fit(list);
}

template <std::size_t kLists>
inline CDN_HOT bool FifoHistory<kLists>::erase_hashed(std::size_t list,
                                                      std::uint64_t id,
                                                      std::uint64_t h,
                                                      std::uint64_t* size_out,
                                                      bool* tag_out) {
  assert(list < kLists);
  const std::size_t i = find(list, id, tag_of(h));
  if (i == kNone) return false;
  Ring& r = rings_[list];
  Rec& rec = r.at(slots_[i].ref);
  if (size_out) *size_out = rec.size;
  if (tag_out) *tag_out = rec.tag;
  rec.live = false;
  r.used -= rec.size;
  --r.live;
  erase_slot(i);
  return true;
}

template <std::size_t kLists>
inline CDN_HOT auto FifoHistory<kLists>::erase_all_hashed(std::uint64_t id,
                                                          std::uint64_t h)
    -> std::array<Erased, kLists> {
  std::array<Erased, kLists> out{};
  if (size_ == 0) return out;
  const std::uint32_t t = tag_of(h);
  std::array<std::size_t, kLists> found{};
  std::size_t n = 0;
  for (std::size_t i = t & mask_; slots_[i].ref != kEmpty; i = next(i)) {
    const Slot s = slots_[i];
    if (s.tag != t) continue;
    const std::size_t list = list_of(s.ref);
    Ring& r = rings_[list];
    Rec& rec = r.at(s.ref);
    if (rec.id != id) continue;
    out[list] = Erased{true, rec.tag, rec.size};
    rec.live = false;
    r.used -= rec.size;
    --r.live;
    found[n++] = i;
    if (n == kLists) break;
  }
  // Later slot first: its backward shift only moves slots after it, so the
  // earlier slot stays where the probe found it.
  while (n > 0) erase_slot(found[--n]);
  return out;
}

// ---- growth (warm-up and tombstone pile-ups only) --------------------------

template <std::size_t kLists>
void FifoHistory<kLists>::grow_index(std::size_t n) {
  assert((n & (n - 1)) == 0 && n <= (std::size_t{1} << 32));
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(n, Slot{0, kEmpty});
  mask_ = n - 1;
  for (const Slot& s : old) {
    if (s.ref == kEmpty) continue;
    std::size_t i = s.tag & mask_;
    while (slots_[i].ref != kEmpty) i = next(i);
    slots_[i] = s;
  }
}

template <std::size_t kLists>
void FifoHistory<kLists>::rewrite_ring(std::size_t list) {
  Ring& r = rings_[list];
  std::size_t n = r.recs.empty() ? kMinRing : r.recs.size();
  while (r.live * 2 > n) n *= 2;
  assert(n <= kMaxRing);
  std::vector<Rec> fresh(n);
  const std::uint32_t fresh_mask = static_cast<std::uint32_t>(n - 1);
  // The survivors take positions just past the old window: the two ranges
  // are disjoint mod 2^30, so slot_of never mistakes a rewritten slot for
  // one still to be rewritten.
  std::uint32_t pos = r.tail;
  for (std::uint32_t p = r.head; p != r.tail; ++p) {
    const Rec& rec = r.at(p);
    if (!rec.live) continue;
    slots_[slot_of(list, rec.htag, p)].ref = ref_of(list, pos);
    fresh[pos & fresh_mask] = rec;
    ++pos;
  }
  r.recs = std::move(fresh);
  r.mask = fresh_mask;
  r.head = r.tail;
  r.tail = pos;
}

template <std::size_t kLists>
void FifoHistory<kLists>::reserve(std::size_t n) {
  std::size_t slots = kMinSlots;
  while (kLists * n * 2 > slots) slots <<= 1;
  if (slots > slots_.size()) grow_index(slots);
  for (std::size_t list = 0; list < kLists; ++list) {
    Ring& r = rings_[list];
    if (r.tail != r.head) continue;  // layout-only: never moves records
    std::size_t len = kMinRing;
    while (len < n && len < kMaxRing) len <<= 1;
    if (len > r.recs.size()) {
      r.recs.assign(len, Rec{});
      r.mask = static_cast<std::uint32_t>(len - 1);
    }
  }
}

}  // namespace cdn
