// Tests for the invariant-audit subsystem: the Inspector checks themselves,
// the Audited* wrappers, and — critically — proof that the audit DETECTS
// corruption (via the debug fault-injection hooks), so a future accounting
// bug cannot pass silently the way the promotion-duel slicing bug did.
#include <gtest/gtest.h>

#include <memory>

#include "policies/replacement/lru.hpp"
#include "sim/audit/audited_cache.hpp"
#include "sim/audit/audited_queue.hpp"
#include "sim/audit/invariants.hpp"
#include "sim/fifo_history.hpp"
#include "trace/generator.hpp"

namespace cdn {
namespace {

using audit::AuditedCache;
using audit::AuditedHistory;
using audit::AuditedQueue;
using audit::AuditReport;
using audit::Inspector;
using audit::InvariantViolation;

Request req(std::int64_t t, std::uint64_t id, std::uint64_t size = 10) {
  return Request{t, id, size, -1};
}

TEST(QueueAudit, FreshQueuePasses) {
  LruQueue q;
  EXPECT_TRUE(Inspector::check(q).ok());
}

TEST(QueueAudit, PopulatedQueuePasses) {
  LruQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      q.insert_mru(i, 1 + i % 7);
    } else {
      q.insert_lru(i, 1 + i % 7);
    }
  }
  q.touch_mru(42);
  q.move_up_one(17);
  q.demote_lru(8);
  q.erase(3);
  (void)q.pop_lru();
  const AuditReport r = Inspector::check(q);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(QueueAudit, MultiListQueuePasses) {
  LruQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.insert_mru(i, 1 + i % 7, i % LruQueue::kMaxLists);
  }
  q.reinsert_lru(*q.find(42), 3);
  q.touch_mru(q.lru_node(1), 0);
  q.move_up_one(17);
  q.erase(3);
  (void)q.pop_lru(2);
  const AuditReport r = Inspector::check(q);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(QueueAudit, DetectsByteAccountingCorruption) {
  // The mutation check from the issue: corrupting used_bytes_ by ONE byte
  // must be caught. This is the class of silent drift that biases every
  // byte-capacity decision downstream.
  LruQueue q;
  q.insert_mru(1, 100);
  q.insert_mru(2, 50);
  ASSERT_TRUE(Inspector::check(q).ok());
  q.debug_corrupt_used_bytes(+1);
  const AuditReport r = Inspector::check(q);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("used_bytes_"), std::string::npos);
  q.debug_corrupt_used_bytes(-1);
  EXPECT_TRUE(Inspector::check(q).ok());
}

TEST(QueueAudit, DetectsCapacityOverrun) {
  LruQueue q;
  q.insert_mru(1, 100);
  EXPECT_TRUE(Inspector::check(q, 100).ok());
  q.insert_mru(2, 1);
  EXPECT_FALSE(Inspector::check(q, 100).ok());
  EXPECT_TRUE(Inspector::check(q, audit::kNoCapacity).ok());
}

TEST(QueueAudit, ReportListsAllViolations) {
  LruQueue q;
  q.insert_mru(1, 10);
  q.debug_corrupt_used_bytes(+5);
  const AuditReport r = Inspector::check(q, 12);
  // Byte-sum mismatch AND capacity overrun, reported together.
  EXPECT_GE(r.violations.size(), 2u);
}

TEST(GhostAudit, DetectsByteAccountingCorruption) {
  FifoHistory<2> g(1000);
  g.add(0, 1, 10);
  g.add(1, 2, 20);
  ASSERT_TRUE(Inspector::check(g).ok());
  g.debug_corrupt_used_bytes(1, -1);
  const AuditReport r = Inspector::check(g);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("list 1: used_bytes_"), std::string::npos);
}

TEST(GhostAudit, DetectsATagThatIsNotTheIdsHash) {
  // Records added under one hash and audited under another: every slot's
  // tag disagrees with the audit's hash of its id.
  FifoHistory<1> g(1000);
  g.add_hashed(0, 1, 10, false, 12345);
  EXPECT_TRUE(Inspector::check(g, [](std::uint64_t) -> std::uint64_t {
                return 12345;
              }).ok());
  const AuditReport r = Inspector::check(g);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("hash of id 1"), std::string::npos);
}

TEST(GhostAudit, OrderAccessorMatchesInsertion) {
  FifoHistory<1> g(1000);
  g.add(0, 1, 10);
  g.add(0, 2, 10);
  g.add(0, 3, 10);
  g.add(0, 1, 10);  // refresh to front
  const std::vector<std::uint64_t> ids = Inspector::history_ids(g, 0);
  const std::vector<std::uint64_t> want{1, 3, 2};
  EXPECT_EQ(ids, want);
}

TEST(AuditedQueue, ForwardsOperationsAndStaysClean) {
  AuditedQueue q(/*capacity_bytes=*/100);
  q.insert_mru(1, 40);
  q.insert_lru(2, 40);
  q.touch_mru(2);
  q.move_up_one(1);
  q.demote_lru(2);
  EXPECT_EQ(q.count(), 2u);
  EXPECT_EQ(q.used_bytes(), 80u);
  EXPECT_EQ(q.lru_id(), 2u);
  LruQueue::Node out{};
  EXPECT_TRUE(q.erase(1, &out));
  EXPECT_EQ(out.size, 40u);
  EXPECT_EQ(q.pop_lru().id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(AuditedQueue, ThrowsOnInjectedCorruption) {
  AuditedQueue q;
  q.insert_mru(1, 10);
  q.unaudited().debug_corrupt_used_bytes(+1);
  EXPECT_THROW(q.verify(), InvariantViolation);
  // Any subsequent audited operation also trips.
  EXPECT_THROW(q.touch_mru(1), InvariantViolation);
}

TEST(AuditedQueue, ThrowsWhenCapacityBoundViolated) {
  AuditedQueue q(/*capacity_bytes=*/50);
  q.insert_mru(1, 30);
  // The caller is responsible for popping to fit; inserting past the bound
  // is exactly the bug class the wrapper polices.
  EXPECT_THROW(q.insert_mru(2, 30), InvariantViolation);
}

TEST(AuditedHistory, ForwardsAndAudits) {
  AuditedHistory<1> g(30);
  g.add(0, 1, 10);
  g.add(0, 2, 10);
  g.add(0, 3, 10);
  g.add(0, 4, 10);  // FIFO-evicts 1
  EXPECT_FALSE(g.contains(0, 1));
  EXPECT_EQ(g.count(0), 3u);
  EXPECT_LE(g.used_bytes(0), 30u);
  g.unaudited().debug_corrupt_used_bytes(0, +1);
  EXPECT_THROW(g.add(0, 5, 10), InvariantViolation);
}

TEST(AuditedCache, RequiresInnerCache) {
  EXPECT_THROW(AuditedCache(nullptr), std::invalid_argument);
}

TEST(AuditedCache, CleanPolicyPassesWholeTraceReplay) {
  AuditedCache c(std::make_unique<LruCache>(64 * 1024));
  const Trace t = generate_trace(cdn_w_like(0.02));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_EQ(c.audited_accesses(), t.requests.size());
  EXPECT_LE(c.used_bytes(), c.capacity());
  EXPECT_EQ(c.name(), "Audited(LRU)");
}

TEST(AuditedCache, OversizedObjectsBypass) {
  AuditedCache c(std::make_unique<LruCache>(100));
  EXPECT_FALSE(c.access(req(0, 1, 500)));
  EXPECT_FALSE(c.contains(1));
}

}  // namespace
}  // namespace cdn
