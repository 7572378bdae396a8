// Differential test harness: drives the optimized queue structures and the
// std::list reference models (reference_model.hpp) in lockstep under a
// deterministic randomized operation sequence, asserting identical
// observable state after every step. The real structure additionally runs
// inside its Audited* wrapper, so every step is also a full structural
// invariant audit. One call therefore checks both "is the structure
// internally consistent" and "does it compute the same answer as an
// obviously-correct model" — eviction order, byte accounting, membership.
//
// Determinism: the op sequence derives entirely from `seed`, so a failing
// (seed, num_ops) pair is a permanent, shareable reproducer.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace cdn::audit {

struct DiffConfig {
  std::uint64_t seed = 1;
  std::size_t num_ops = 20'000;
  /// Object ids are drawn from [0, id_space) — small enough to force heavy
  /// collision/reuse, which is where accounting bugs live.
  std::uint64_t id_space = 96;
  /// Object sizes are drawn from [1, max_size].
  std::uint64_t max_size = 64;
  /// Byte bound enforced LruQueue-style (caller pops to fit) and passed to
  /// the capacity audit; also each history list's capacity. 0 = unbounded
  /// queue.
  std::uint64_t capacity_bytes = 1024;
  /// Full order comparison (O(n)) every this many ops; cheap state
  /// (count/bytes/ends) is compared every op.
  std::size_t full_compare_interval = 64;
  /// The hash the history differentials derive index tags from; a test
  /// passes one with few distinct low 32 bits to force tag collisions.
  std::uint64_t (*hash)(std::uint64_t) = &hash64;
  /// Lists of the queue under run_queue_differential (1..kMaxLists).
  std::size_t lists = 1;
};

struct DiffResult {
  bool ok = true;
  std::size_t ops_executed = 0;
  std::string failure;  ///< empty when ok; includes the failing op index
};

/// LruQueue vs RefLruModel over insert_mru / insert_lru / touch_mru /
/// move_up_one / demote_lru / erase / pop_lru / sample / capacity-bounded
/// admission (pop-to-fit, as every cache and shadow monitor drives it).
/// With `cfg.lists` above 1 the queue runs against that many RefLruModels
/// in lockstep (the multi-list hosts' shape): inserts and pops go to any
/// list, and touch_mru / reinsert_* / LRU-end moves relink nodes across
/// lists; every list's count, bytes, ends and order are compared.
[[nodiscard]] DiffResult run_queue_differential(const DiffConfig& cfg = {});

/// One-list FifoHistory vs RefGhostModel over add (including
/// refresh-on-re-add and records larger than capacity) / erase / contains,
/// comparing FIFO order.
[[nodiscard]] DiffResult run_ghost_differential(const DiffConfig& cfg = {});

/// Two-list FifoHistory vs two RefGhostModels in lockstep, under SCIP's mix:
/// DELETE probes of both lists (erase_all) and adds to either list, plus
/// single-list erases and membership checks. A small id space puts ids in
/// both lists and leaves tombstones next to tombstones; refreshes,
/// oversize adds (which erase only that list's record) and ring rewrites
/// all occur; `cfg.hash` can force 32-bit tag collisions.
[[nodiscard]] DiffResult run_history_differential(const DiffConfig& cfg = {});

}  // namespace cdn::audit
