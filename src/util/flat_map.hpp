// FlatMap: open-addressing hash table for the simulation hot path.
//
// Every simulated request funnels through the id -> slab-slot index of
// `LruQueue`; `std::unordered_map` pays one heap node per entry plus a
// pointer chase per probe there, which dominates replay profiles (the
// Cold-RL production framing: eviction-path work must fit a microsecond
// budget). This map stores slots inline in one contiguous array:
//
//   * power-of-two capacity, linear probing from `hash64(key) & mask`;
//   * tombstone-free backward-shift deletion: erasing an entry shifts the
//     following probe cluster back over the hole, so probe sequences stay
//     dense and lookup cost does not degrade after churn (no tombstone
//     accumulation, no periodic rehash-to-clean);
//   * deterministic layout: the slot array is a pure function of the
//     operation sequence (hash64 is a fixed splitmix64 finalizer — no
//     per-process salt, no platform dependence). Callers still must not
//     depend on iteration order, which is why no iterators are exposed;
//     `for_each` exists for audits/tests and visits in slot order.
//
// The key type must be an unsigned integral no wider than 64 bits (all
// callers key by object id). Values are trivially small (slab indices,
// level bytes); the map copies them freely.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/attr.hpp"
#include "util/rng.hpp"

namespace cdn {

template <typename K, typename V>
class FlatMap {
  static_assert(sizeof(K) <= sizeof(std::uint64_t),
                "FlatMap keys must fit in 64 bits (hashed via hash64)");

 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Current slot-array length (0 before the first insert).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  [[nodiscard]] bool contains(const K& key) const noexcept {
    return find(key) != nullptr;
  }

  /// The hash this map derives probe positions from. Callers on the
  /// per-request hot path compute it once per request and thread it through
  /// every probe (`*_hashed` overloads) instead of re-hashing the same id
  /// three to five times; the arithmetic is identical either way.
  [[nodiscard]] static std::uint64_t hash_of(const K& key) noexcept {
    return hash64(static_cast<std::uint64_t>(key));
  }

  /// Pointer to the value for `key`, or nullptr. Invalidated by any
  /// mutation of the map (insert may grow, erase may shift).
  [[nodiscard]] V* find(const K& key) noexcept {
    return find_hashed(key, hash_of(key));
  }
  [[nodiscard]] const V* find(const K& key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// find() with the caller-precomputed hash_of(key).
  [[nodiscard]] CDN_HOT V* find_hashed(const K& key,
                                       std::uint64_t h) noexcept {
    assert(h == hash_of(key));
    if (size_ == 0) return nullptr;
    for (std::size_t i = static_cast<std::size_t>(h) & mask_;; i = next(i)) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  [[nodiscard]] const V* find_hashed(const K& key,
                                     std::uint64_t h) const noexcept {
    return const_cast<FlatMap*>(this)->find_hashed(key, h);
  }

  /// Inserts `key -> value`; returns false (and leaves the existing value
  /// untouched) if the key is already present.
  bool insert(const K& key, const V& value) {
    return insert_hashed(key, value, hash_of(key));
  }

  /// insert() with the caller-precomputed hash_of(key).
  CDN_HOT bool insert_hashed(const K& key, const V& value,
                             std::uint64_t h) {
    bool inserted = false;
    V* slot = upsert_hashed(key, h, &inserted);
    if (!inserted) return false;
    *slot = value;
    return true;
  }

  /// Slot for `key`, claiming a fresh slot when absent: a single-probe
  /// find-or-insert (the hot-key tracker's per-request upsert).
  /// `*inserted` reports whether the slot is new (value uninitialized — the
  /// caller must assign it) or existing (value untouched). May grow the
  /// table (even when the key turns out to be present, exactly like
  /// insert() always did).
  CDN_HOT V* upsert_hashed(const K& key, std::uint64_t h, bool* inserted) {
    assert(h == hash_of(key));
    if (slots_.empty() ||
        (size_ + 1) * kMaxLoadNum > slots_.size() * kMaxLoadDen) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    for (std::size_t i = static_cast<std::size_t>(h) & mask_;; i = next(i)) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        ++size_;
        *inserted = true;
        return &s.value;
      }
      if (s.key == key) {
        *inserted = false;
        return &s.value;
      }
    }
  }

  /// Value for `key`, default-constructed and inserted if absent.
  V& operator[](const K& key) {
    bool inserted = false;
    V* slot = upsert_hashed(key, hash_of(key), &inserted);
    if (inserted) *slot = V{};
    return *slot;
  }

  /// Hints the cache hierarchy to pull the home slot for a key hashing to
  /// `h`. Purely advisory — never changes behavior — and safe on an empty
  /// map. Used by the batched serving path and the SoA replay loop to
  /// overlap probe-miss latency across requests.
  CDN_HOT void prefetch_hashed(std::uint64_t h) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[static_cast<std::size_t>(h) & mask_]);
    }
#else
    (void)h;
#endif
  }

  /// Removes `key` with backward-shift compaction. Returns true if present.
  bool erase(const K& key) noexcept {
    return erase_hashed(key, hash_of(key));
  }

  /// erase() with the caller-precomputed hash_of(key).
  CDN_HOT bool erase_hashed(const K& key, std::uint64_t h) noexcept {
    assert(h == hash_of(key));
    if (size_ == 0) return false;
    std::size_t hole = static_cast<std::size_t>(h) & mask_;
    for (;; hole = next(hole)) {
      if (!slots_[hole].used) return false;
      if (slots_[hole].key == key) break;
    }
    // Shift the rest of the probe cluster back over the hole: an entry at
    // `i` may move iff the hole lies within its probe path, i.e. its home
    // is cyclically no later than the hole (distance(home(i) -> i) >=
    // distance(hole -> i)). An entry sitting exactly at its home slot
    // starts a new run and terminates the shift for everything before it.
    std::size_t i = next(hole);
    for (; slots_[i].used; i = next(i)) {
      const std::size_t h = home(slots_[i].key);
      if (((i - h) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  void clear() noexcept {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Grows the slot array so `n` entries fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (n * kMaxLoadNum > cap * kMaxLoadDen) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Visits every (key, value) pair in slot order. Slot order is
  /// deterministic for a fixed operation history but is NOT insertion
  /// order; simulation code must not let it reach policy decisions
  /// (audits and tests only).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

  /// Per-slot footprint, for metadata_bytes() estimates.
  static constexpr std::size_t kSlotBytes = sizeof(K) + sizeof(V) + 1;

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };

  static constexpr std::size_t kMinCapacity = 16;
  // Grow past 1/2 occupancy. Linear probing degrades sharply with load
  // (expected probes to an empty slot ~ (1 + 1/(1-load)^2) / 2): at 7/8
  // the hot-path mix measured ~1.7x slower than at 1/2, which erased the
  // win over std::unordered_map entirely. Half-full tables cost 2x slots,
  // but slots are 16 bytes against ~32+ heap bytes per unordered_map node,
  // so the footprint still comes out ahead — and the simulator's
  // steady-state churn (erase+insert pairs) holds occupancy constant, so
  // growth is a warm-up-only cost either way.
  static constexpr std::size_t kMaxLoadNum = 2;
  static constexpr std::size_t kMaxLoadDen = 1;

  [[nodiscard]] std::size_t home(const K& key) const noexcept {
    return static_cast<std::size_t>(hash_of(key)) & mask_;
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & mask_;
  }

  void rehash(std::size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    for (const Slot& s : old) {
      if (!s.used) continue;
      for (std::size_t i = home(s.key);; i = next(i)) {
        if (!slots_[i].used) {
          slots_[i] = s;
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cdn
