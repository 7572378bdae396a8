// Self-auditing wrappers: `AuditedQueue` and `AuditedHistory` mirror the
// public API of `LruQueue` / `FifoHistory` and run the full structural
// invariant audit (see invariants.hpp) after every operation, throwing
// `InvariantViolation` the moment a structure goes inconsistent — at the
// offending operation, not thousands of requests later when a learned weight
// looks wrong. Tests and the differential harness drive these wrappers; the
// simulation hot paths use the raw structures.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/audit/invariants.hpp"
#include "sim/fifo_history.hpp"
#include "sim/lru_queue.hpp"

namespace cdn::audit {

/// Thrown by the Audited* wrappers when a post-operation audit fails. The
/// message names the operation and lists every violated invariant.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error(what) {}
};

class AuditedQueue {
 public:
  /// `capacity_bytes` arms the capacity-never-exceeded check. LruQueue does
  /// not evict by itself, so callers enforcing a byte bound (every cache and
  /// shadow monitor does) pass theirs; kNoCapacity audits structure only.
  explicit AuditedQueue(std::uint64_t capacity_bytes = kNoCapacity)
      : capacity_(capacity_bytes) {}

  LruQueue::Node& insert_mru(std::uint64_t id, std::uint64_t size,
                             std::size_t list = 0) {
    LruQueue::Node& n = q_.insert_mru(id, size, list);
    verify("insert_mru");
    return n;
  }
  LruQueue::Node& insert_lru(std::uint64_t id, std::uint64_t size,
                             std::size_t list = 0) {
    LruQueue::Node& n = q_.insert_lru(id, size, list);
    verify("insert_lru");
    return n;
  }
  void touch_mru(std::uint64_t id) {
    q_.touch_mru(id);
    verify("touch_mru");
  }
  // The node-based relinks into `list`, looked up by id; no-ops if absent.
  void touch_mru(std::uint64_t id, std::size_t list) {
    if (LruQueue::Node* n = q_.find(id)) q_.touch_mru(*n, list);
    verify("touch_mru into a list");
  }
  void reinsert_mru(std::uint64_t id, std::size_t list) {
    if (LruQueue::Node* n = q_.find(id)) q_.reinsert_mru(*n, list);
    verify("reinsert_mru");
  }
  void reinsert_lru(std::uint64_t id, std::size_t list) {
    if (LruQueue::Node* n = q_.find(id)) q_.reinsert_lru(*n, list);
    verify("reinsert_lru");
  }
  /// Moves `from`'s LRU-end node to `to`'s MRU end (one step of a demotion
  /// cascade). `from` must be non-empty.
  void move_lru(std::size_t from, std::size_t to) {
    q_.touch_mru(q_.lru_node(from), to);
    verify("move_lru");
  }
  void move_up_one(std::uint64_t id) {
    q_.move_up_one(id);
    verify("move_up_one");
  }
  void demote_lru(std::uint64_t id) {
    q_.demote_lru(id);
    verify("demote_lru");
  }
  LruQueue::Node pop_lru(std::size_t list = 0) {
    LruQueue::Node n = q_.pop_lru(list);
    verify("pop_lru");
    return n;
  }
  bool erase(std::uint64_t id, LruQueue::Node* out = nullptr) {
    const bool present = q_.erase(id, out);
    verify("erase");
    return present;
  }
  LruQueue::Node& sample(Rng& rng) {
    LruQueue::Node& n = q_.sample(rng);
    verify("sample");
    return n;
  }

  // Read-only passthroughs (no audit needed; they cannot mutate).
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return q_.contains(id);
  }
  [[nodiscard]] std::size_t count(std::size_t list = 0) const noexcept {
    return q_.count(list);
  }
  [[nodiscard]] bool empty(std::size_t list = 0) const noexcept {
    return q_.empty(list);
  }
  [[nodiscard]] std::uint64_t used_bytes(std::size_t list = 0) const noexcept {
    return q_.used_bytes(list);
  }
  [[nodiscard]] std::uint64_t lru_id(std::size_t list = 0) const {
    return q_.lru_id(list);
  }
  [[nodiscard]] std::uint64_t mru_id(std::size_t list = 0) const {
    return q_.mru_id(list);
  }

  /// The wrapped queue, for read-only assertions and for_each traversal.
  [[nodiscard]] const LruQueue& queue() const noexcept { return q_; }
  /// Mutable access escapes the audit — exists so tests can inject
  /// corruption (debug_corrupt_used_bytes) and prove the audit catches it.
  [[nodiscard]] LruQueue& unaudited() noexcept { return q_; }

  /// Runs the audit immediately (e.g. after unaudited() mutations).
  void verify(const char* op = "explicit verify") const {
    const AuditReport report = Inspector::check(q_, capacity_);
    if (!report.ok()) {
      throw InvariantViolation(std::string("LruQueue audit failed after ") +
                               op + ": " + report.to_string());
    }
  }

 private:
  std::uint64_t capacity_;
  LruQueue q_;
};

/// A FifoHistory whose plain operations hash ids with `hash` (hash64 by
/// default; a test can pass a hash that forces 32-bit tag collisions).
template <std::size_t kLists>
class AuditedHistory {
 public:
  using History = FifoHistory<kLists>;

  explicit AuditedHistory(std::uint64_t capacity_bytes,
                          Inspector::HashFn hash = &hash64)
      : hash_(hash), g_(capacity_bytes) {}

  void add(std::size_t list, std::uint64_t id, std::uint64_t size,
           bool tag = false) {
    g_.add_hashed(list, id, size, tag, hash_(id));
    verify("add");
  }
  bool erase(std::size_t list, std::uint64_t id,
             std::uint64_t* size_out = nullptr, bool* tag_out = nullptr) {
    const bool present = g_.erase_hashed(list, id, hash_(id), size_out,
                                         tag_out);
    verify("erase");
    return present;
  }
  std::array<typename History::Erased, kLists> erase_all(std::uint64_t id) {
    const auto erased = g_.erase_all_hashed(id, hash_(id));
    verify("erase_all");
    return erased;
  }

  [[nodiscard]] bool contains(std::size_t list, std::uint64_t id) const {
    return g_.contains_hashed(list, id, hash_(id));
  }
  [[nodiscard]] std::size_t count(std::size_t list) const noexcept {
    return g_.count(list);
  }
  [[nodiscard]] std::uint64_t used_bytes(std::size_t list) const noexcept {
    return g_.used_bytes(list);
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return g_.capacity();
  }

  [[nodiscard]] const History& history() const noexcept { return g_; }
  [[nodiscard]] History& unaudited() noexcept { return g_; }

  void verify(const char* op = "explicit verify") const {
    const AuditReport report = Inspector::check(g_, hash_);
    if (!report.ok()) {
      throw InvariantViolation(std::string("FifoHistory audit failed after ") +
                               op + ": " + report.to_string());
    }
  }

 private:
  Inspector::HashFn hash_;
  History g_;
};

}  // namespace cdn::audit
