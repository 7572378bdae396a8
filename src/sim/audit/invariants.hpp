// Structural invariant audits for the queue substrate.
//
// Every queue-based policy in this repo sits on `LruQueue` (slab + up to
// four intrusive doubly-linked lists + one hash index + dense sampling
// vector) and `FifoHistory` (byte-bounded FIFO history rings over one
// shared index). Small accounting
// errors in these structures — a stale hash entry, a drifted `used_bytes_`,
// a dense slot pointing at a freed node — do not crash; they silently bias
// learned-policy conclusions (LeCaR/CACHEUS-style learners flip on exactly
// such errors).
// This header provides whole-structure consistency checks that the
// `AuditedQueue`/`AuditedHistory`/`AuditedCache` wrappers run after every
// operation, and that tests invoke directly.
//
// The checks are read-only and O(n); they are debugging/testing machinery,
// never part of a simulation hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace cdn {

class LruQueue;
template <std::size_t kLists>
class FifoHistory;

namespace audit {

/// Result of a structural audit: `ok()` or a list of human-readable
/// violation descriptions (all violations found, not just the first).
struct AuditReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// All violations joined into one diagnostic string.
  [[nodiscard]] std::string to_string() const;
};

/// kNoCapacity disables the capacity-bound check (LruQueue itself has no
/// capacity; the bound is the wrapping cache's contract).
inline constexpr std::uint64_t kNoCapacity = ~0ULL;

/// Friend-of-the-audited-classes accessor: the audits need to traverse
/// private slab/list state without widening the public API of the
/// structures they police.
class Inspector {
 public:
  /// Validates every structural invariant of an LruQueue, walking every
  /// list:
  ///  - doubly-linked-list integrity per list: head reachable to tail via
  ///    next, prev mirrors next, terminal links null, no cycle, and the
  ///    tail shadows match the tail node;
  ///  - each node on list l carries list tag l;
  ///  - `used_bytes(l)` and `count(l)` equal the sum of list l's node sizes
  ///    and its node count;
  ///  - the lists partition the residents: no node on two lists, and their
  ///    total population == hash-index population == dense-vector
  ///    population;
  ///  - hash index maps each resident id to its slab slot, ids unique;
  ///  - dense vector and `dense_pos_` back-pointers agree (sampling safety);
  ///  - slab slots partition exactly into {resident} ∪ {free list}, with
  ///    the free list duplicate-free, in-range, and disjoint from the list;
  ///  - the lists' total bytes <= capacity_bytes when a bound is given.
  static AuditReport check(const LruQueue& q,
                           std::uint64_t capacity_bytes = kNoCapacity);

  /// The hash a FifoHistory's callers derive index tags from.
  using HashFn = std::uint64_t (*)(std::uint64_t);

  /// Validates every structural invariant of a FifoHistory, per list and
  /// over the shared index:
  ///  - ring order is FIFO order: the window from the drop cursor to the
  ///    write cursor fits the ring, and every record the index reaches
  ///    lies inside it;
  ///  - `used_bytes(list)` equals the sum of the list's live records and
  ///    `count(list)` their number; the byte bound holds, and no record
  ///    individually exceeds the capacity (add() rejects those);
  ///  - live ids are unique within a list;
  ///  - the index maps one-to-one onto live records: no slot points at a
  ///    tombstone or outside its ring's window, each live record has
  ///    exactly one slot, each slot's tag is the low 32 bits of
  ///    `hash(id)` and is reachable from its home without an empty slot;
  ///  - the index is at most half full.
  /// `hash` is the hash the callers passed (hash64 unless a test forces
  /// tag collisions).
  template <std::size_t kLists>
  static AuditReport check(const FifoHistory<kLists>& g,
                           HashFn hash = &hash64);

  /// One list's live ids, newest to oldest — lets differential tests
  /// compare full FIFO order against a reference model.
  template <std::size_t kLists>
  static std::vector<std::uint64_t> history_ids(const FifoHistory<kLists>& g,
                                                std::size_t list);
};

}  // namespace audit
}  // namespace cdn
