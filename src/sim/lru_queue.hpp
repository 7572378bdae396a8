// Byte-capacity LRU queue: the shared substrate of every queue-based policy.
//
// Storage is a slab (stable u32 indices + free list) holding intrusive
// doubly-linked-list nodes, plus a FlatMap from object id to slab index
// (open addressing — no per-entry heap node on the request hot path).
// All queue operations used by the paper's policies are O(1):
//   insert at MRU / insert at LRU          (bimodal insertion, LIP, BIP)
//   move to MRU (touch)                    (classic LRU promotion)
//   move one step toward MRU               (PIPP promotion)
//   pop from the LRU end                   (LRU victim selection)
//   erase by id                            (SCIP's REMOVE on promotion)
// A dense occupancy vector additionally supports O(1) uniform random
// sampling of resident objects (used by LHD's and LRB's sampled eviction).
//
// One queue holds up to kMaxLists lists over that one slab and index, so a
// host with several lists (S4LRU's segments, ARC's T1/T2, 2Q's A1in/Am,
// SS-LRU's probation/protected) probes one index per request. Each node
// records its list; each list keeps its own ends, bytes, count and tail
// shadows. Moving a node into another list (touch_mru / reinsert_* with a
// list argument) keeps its slab slot and index entry and moves only its
// bytes and count. Operations that take a list default to list 0, so a
// one-list host never names one.
//
// Nodes carry the per-object metadata the policies need (hit count,
// insertion position mark, timestamps, one policy-defined scalar), mirroring
// the ~110-byte inode metadata TDC keeps in memory (§5.1).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/attr.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace cdn {

namespace audit {
class Inspector;
}  // namespace audit

class LruQueue {
 public:
  static constexpr std::uint32_t kNull = 0xffffffffu;
  static constexpr std::size_t kMaxLists = 4;

  struct Node {
    std::uint64_t id = 0;
    std::uint64_t size = 0;
    std::int64_t insert_tick = 0;  ///< logical time of cache entry
    std::int64_t last_tick = 0;    ///< logical time of last access
    std::uint32_t hits = 0;        ///< hits during the current residency
    std::uint8_t insert_pos = 1;   ///< 1 = inserted at MRU, 0 = at LRU
    std::uint8_t flags = 0;        ///< policy-defined bits
    std::uint64_t aux = 0;         ///< policy-defined scalar

    /// The list the node is on.
    [[nodiscard]] std::size_t list() const noexcept { return list_; }

   private:
    std::uint8_t list_ = 0;  // in the padding after `flags`
    std::uint32_t prev_ = kNull;
    std::uint32_t next_ = kNull;
    std::uint32_t dense_pos_ = kNull;
    friend class LruQueue;
    friend class audit::Inspector;
  };
  static_assert(sizeof(Node) == 64, "the list tag must fit the padding");

  LruQueue() = default;

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return index_.contains(id);
  }
  /// contains() with the caller-precomputed hash64(id).
  [[nodiscard]] bool contains_hashed(std::uint64_t id, std::uint64_t h) const {
    return index_.find_hashed(id, h) != nullptr;
  }
  /// Returns the node for `id` or nullptr. The pointer is invalidated by any
  /// mutation of the queue.
  [[nodiscard]] Node* find(std::uint64_t id);
  [[nodiscard]] const Node* find(std::uint64_t id) const;
  /// find() with the caller-precomputed hash64(id) — the per-request path
  /// hashes each id exactly once and threads the hash through every probe.
  [[nodiscard]] CDN_HOT Node* find_hashed(std::uint64_t id, std::uint64_t h);

  /// Inserts a new object (must not be present) at `list`'s MRU / LRU end.
  /// Returns its node.
  Node& insert_mru(std::uint64_t id, std::uint64_t size,
                   std::size_t list = 0) {
    return insert_hashed(id, size, hash64(id), list, true);
  }
  Node& insert_lru(std::uint64_t id, std::uint64_t size,
                   std::size_t list = 0) {
    return insert_hashed(id, size, hash64(id), list, false);
  }
  CDN_HOT Node& insert_mru_hashed(std::uint64_t id, std::uint64_t size,
                                  std::uint64_t h, std::size_t list = 0) {
    return insert_hashed(id, size, h, list, true);
  }
  CDN_HOT Node& insert_lru_hashed(std::uint64_t id, std::uint64_t size,
                                  std::uint64_t h, std::size_t list = 0) {
    return insert_hashed(id, size, h, list, false);
  }

  /// Moves an existing object to the MRU end of its list. No-op if absent.
  void touch_mru(std::uint64_t id);
  /// Moves an existing object one step toward its list's MRU end (PIPP).
  /// No-op if absent or already MRU.
  void move_up_one(std::uint64_t id);
  /// Moves an existing object to its list's LRU end (demotion). No-op if
  /// absent.
  void demote_lru(std::uint64_t id);

  // Node-based relinks: `n` must be a live node obtained from find() or
  // lru_node() with no intervening mutation. They skip the index probe
  // entirely (the caller already paid it) — the found-node fast path of
  // every queue policy.
  /// Moves `n` to the MRU end of `list`; every field is kept.
  CDN_HOT void touch_mru(Node& n, std::size_t list);
  void touch_mru(Node& n) { touch_mru(n, n.list_); }
  CDN_HOT void demote_lru(Node& n);

  /// Re-inserts a resident object at the MRU / LRU end of `list` (its own
  /// list by default) IN PLACE: same slab slot, same index entry,
  /// `insert_pos` updated — what an erase() + insert_*() + field restore
  /// did, without its two index probes and backward-shift delete. Every
  /// other field is preserved; a caller that wants `hits`/ticks reset sets
  /// them itself (AdvisedLruCache does).
  CDN_HOT Node& reinsert_mru(Node& n, std::size_t list);
  CDN_HOT Node& reinsert_lru(Node& n, std::size_t list);
  Node& reinsert_mru(Node& n) { return reinsert_mru(n, n.list_); }
  Node& reinsert_lru(Node& n) { return reinsert_lru(n, n.list_); }

  /// Removes and returns `list`'s LRU-end node. The list must be non-empty.
  CDN_HOT Node pop_lru(std::size_t list = 0) {
    std::uint64_t unused_hash = 0;
    return pop_lru(&unused_hash, list);
  }
  /// pop_lru() that also reports hash64(victim.id), which it computed for
  /// its own index erase — the eviction path reuses it for the history
  /// lists instead of re-hashing the victim id.
  CDN_HOT Node pop_lru(std::uint64_t* victim_hash_out, std::size_t list = 0);
  /// Removes `id`; returns true and copies the node into `out` if present.
  bool erase(std::uint64_t id, Node* out = nullptr);
  CDN_HOT bool erase_hashed(std::uint64_t id, std::uint64_t h,
                            Node* out = nullptr);

  /// Pre-sizes the slab, dense vector and hash index for `n` resident
  /// objects so the warm-up phase does not pay reallocation/rehash stalls;
  /// the steady-state request path allocates nothing either way (slab free
  /// list + constant-occupancy index). Layout-only: never changes behavior.
  void reserve(std::size_t n);

  /// Advisory prefetch of the index home slot for `id` (see FlatMap).
  void prefetch(std::uint64_t id) const noexcept {
    index_.prefetch_hashed(hash64(id));
  }
  void prefetch_hashed(std::uint64_t h) const noexcept {
    index_.prefetch_hashed(h);
  }

  /// Id at `list`'s LRU end (the next victim). The list must be non-empty.
  /// Served from the tail-id shadow: no node read, so the eviction
  /// lookahead can name the victim and start its dependent prefetches for
  /// free.
  [[nodiscard]] std::uint64_t lru_id(std::size_t list = 0) const noexcept {
    const List& l = lists_[list];
    assert(l.tail != kNull);
    assert(slab_[l.tail].id == l.tail_id);
    return l.tail_id;
  }
  /// insert_pos of list 0's LRU-end node (1 = was inserted at MRU), also
  /// from the tail shadow: tells an advisor's eviction lookahead which
  /// history list the victim will land in without reading the cold node.
  [[nodiscard]] std::uint8_t lru_insert_pos() const noexcept {
    const List& l = lists_[0];
    assert(l.tail != kNull);
    assert(slab_[l.tail].insert_pos == l.tail_pos);
    return l.tail_pos;
  }
  [[nodiscard]] std::uint64_t mru_id(std::size_t list = 0) const {
    assert(lists_[list].head != kNull);
    return slab_[lists_[list].head].id;
  }
  /// `list`'s LRU-end node, for a move into another list. The list must be
  /// non-empty.
  [[nodiscard]] Node& lru_node(std::size_t list) {
    assert(lists_[list].tail != kNull);
    return slab_[lists_[list].tail];
  }

  /// Advisory prefetch of list 0's LRU-end node itself (the next victim):
  /// the tail sits untouched since it last moved, so the eviction read is
  /// almost always cold unless hinted while earlier work retires.
  void prefetch_lru_node() const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (lists_[0].tail != kNull) __builtin_prefetch(&slab_[lists_[0].tail]);
#endif
  }

  [[nodiscard]] std::size_t count(std::size_t list = 0) const noexcept {
    return lists_[list].count;
  }
  [[nodiscard]] bool empty(std::size_t list = 0) const noexcept {
    return lists_[list].count == 0;
  }
  [[nodiscard]] std::uint64_t used_bytes(std::size_t list = 0) const noexcept {
    return lists_[list].bytes;
  }

  /// Uniformly random resident node of any list. The queue must be
  /// non-empty.
  [[nodiscard]] Node& sample(Rng& rng);

  /// Visits `list`'s nodes from the LRU end toward MRU until fn returns
  /// false.
  void for_each_from_lru(const std::function<bool(const Node&)>& fn,
                         std::size_t list = 0) const;

  /// Approximate in-memory metadata footprint (bytes) for the resource
  /// experiments: slab nodes + hash index overhead, counted per live entry
  /// of every list.
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept;

  /// Test-only fault injection: skews list 0's byte accounting without
  /// touching the list, so the audit harness can prove it detects such
  /// corruption. Never call outside tests.
  void debug_corrupt_used_bytes(std::int64_t delta) noexcept {
    lists_[0].bytes = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(lists_[0].bytes) + delta);
  }

 private:
  friend class audit::Inspector;

  /// One list's ends and accounting. `tail_id` and `tail_pos` shadow
  /// slab_[tail].{id, insert_pos}, kept wherever `tail` moves (the prev
  /// node's line is already touched there, so the copies are free): the
  /// eviction lookahead names the next victim without reading its node.
  struct List {
    std::uint32_t head = kNull;  ///< MRU end
    std::uint32_t tail = kNull;  ///< LRU end
    std::uint32_t count = 0;
    std::uint8_t tail_pos = 1;
    std::uint64_t bytes = 0;
    std::uint64_t tail_id = 0;
  };
  static_assert(sizeof(List) == 32);

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  CDN_HOT Node& insert_hashed(std::uint64_t id, std::uint64_t size,
                              std::uint64_t h, std::size_t list, bool mru);
  void link_mru(std::uint32_t idx);
  void link_lru(std::uint32_t idx);
  void unlink(std::uint32_t idx);
  /// unlink() that also moves the node's bytes and count to `list`.
  void unlink_to(std::uint32_t idx, std::size_t list);
  std::uint32_t slot_of(const Node& n) const noexcept {
    return static_cast<std::uint32_t>(&n - slab_.data());
  }

  std::vector<Node> slab_;
  /// List 0 first, so a one-list host's ends share the queue's first cache
  /// line with the slab pointer.
  std::array<List, kMaxLists> lists_{};
  FlatMap<std::uint64_t, std::uint32_t> index_;
  std::vector<std::uint32_t> dense_;  ///< occupied slab slots, for sampling
  std::vector<std::uint32_t> free_list_;
};

}  // namespace cdn
