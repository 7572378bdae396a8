#include "sim/audit/invariants.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "sim/fifo_history.hpp"
#include "sim/lru_queue.hpp"

namespace cdn::audit {

namespace {

// Collects violations with printf-free stream formatting.
class Collector {
 public:
  explicit Collector(AuditReport& report) : report_(report) {}

  template <typename... Parts>
  void fail(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    report_.violations.push_back(os.str());
  }

 private:
  AuditReport& report_;
};

}  // namespace

std::string AuditReport::to_string() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << violations.size() << " invariant violation(s):";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

AuditReport Inspector::check(const LruQueue& q, std::uint64_t capacity_bytes) {
  AuditReport report;
  Collector c(report);
  const auto& slab = q.slab_;
  const std::uint32_t kNull = LruQueue::kNull;

  // Walk each list head -> tail via next_, verifying prev_ mirrors the path
  // and every node carries the list's tag. One visited set spans all lists,
  // so a node reachable from two lists is caught like a cycle; bounding the
  // walks by that set makes a corrupted cycle end in a violation instead of
  // hanging the audit.
  std::vector<std::uint32_t> order;
  std::unordered_set<std::uint32_t> on_list;
  std::uint64_t total_bytes = 0;
  for (std::size_t l = 0; l < LruQueue::kMaxLists; ++l) {
    const auto& list = q.lists_[l];
    const std::size_t first = order.size();
    std::uint32_t prev = kNull;
    std::uint32_t idx = list.head;
    bool cycle = false;
    while (idx != kNull) {
      if (idx >= slab.size()) {
        c.fail("list ", l, ": link out of slab range: ", idx, " >= ",
               slab.size());
        return report;  // cannot traverse further safely
      }
      if (!on_list.insert(idx).second) {
        c.fail("list ", l, ": cycle or shared node at slab slot ", idx);
        cycle = true;
        break;
      }
      if (slab[idx].prev_ != prev) {
        c.fail("list ", l, ": prev link of slot ", idx, " is ",
               slab[idx].prev_, ", expected ", prev);
      }
      if (slab[idx].list_ != l) {
        c.fail("list ", l, ": slot ", idx, " is tagged with list ",
               +slab[idx].list_);
      }
      order.push_back(idx);
      prev = idx;
      idx = slab[idx].next_;
    }
    if (!cycle) {
      if (list.tail != prev) {
        c.fail("list ", l, ": tail is ", list.tail,
               ", expected last walked slot ", prev);
      }
      if (list.head != kNull && slab[list.head].prev_ != kNull) {
        c.fail("list ", l, ": head node has non-null prev link");
      }
      if (list.tail != kNull && list.tail < slab.size() &&
          (slab[list.tail].next_ != kNull ||
           slab[list.tail].id != list.tail_id ||
           slab[list.tail].insert_pos != list.tail_pos)) {
        c.fail("list ", l, ": tail node has a next link or disagrees with ",
               "the tail shadows");
      }
    }
    std::uint64_t bytes = 0;
    for (std::size_t i = first; i < order.size(); ++i) {
      bytes += slab[order[i]].size;
    }
    if (order.size() - first != list.count) {
      c.fail("list ", l, ": count is ", list.count, " but the list holds ",
             order.size() - first, " nodes");
    }
    if (bytes != list.bytes) {
      c.fail("list ", l, ": used_bytes_ is ", list.bytes,
             " but its resident sizes sum to ", bytes);
    }
    total_bytes += list.bytes;
  }

  // The lists together must partition the residents: population counts
  // agree across all three views of residency.
  if (order.size() != q.index_.size()) {
    c.fail("lists hold ", order.size(), " nodes but index_ holds ",
           q.index_.size());
  }
  if (order.size() != q.dense_.size()) {
    c.fail("lists hold ", order.size(), " nodes but dense_ holds ",
           q.dense_.size());
  }

  // Per-node: index mapping, dense back-pointers, id uniqueness.
  std::unordered_set<std::uint64_t> ids;
  for (const std::uint32_t i : order) {
    const auto& n = slab[i];
    if (!ids.insert(n.id).second) {
      c.fail("duplicate resident id ", n.id);
    }
    const std::uint32_t* mapped = q.index_.find(n.id);
    if (mapped == nullptr) {
      c.fail("resident id ", n.id, " missing from index_");
    } else if (*mapped != i) {
      c.fail("index_[", n.id, "] = ", *mapped, ", expected slot ", i);
    }
    if (n.dense_pos_ >= q.dense_.size()) {
      c.fail("slot ", i, " dense_pos_ ", n.dense_pos_, " out of range");
    } else if (q.dense_[n.dense_pos_] != i) {
      c.fail("dense_[", n.dense_pos_, "] = ", q.dense_[n.dense_pos_],
             ", expected slot ", i, " (sampling would return a wrong node)");
    }
  }
  if (capacity_bytes != kNoCapacity && total_bytes > capacity_bytes) {
    c.fail("used bytes ", total_bytes, " exceed capacity bound ",
           capacity_bytes);
  }

  // Dense entries must be unique, in range, and exactly the listed slots.
  std::unordered_set<std::uint32_t> dense_set;
  for (const std::uint32_t d : q.dense_) {
    if (d >= slab.size()) {
      c.fail("dense_ entry ", d, " out of slab range");
      continue;
    }
    if (!dense_set.insert(d).second) c.fail("duplicate dense_ entry ", d);
    if (!on_list.contains(d)) {
      c.fail("dense_ entry ", d, " is not on any list");
    }
  }

  // Slab slots partition into resident ∪ free list.
  std::unordered_set<std::uint32_t> free_set;
  for (const std::uint32_t f : q.free_list_) {
    if (f >= slab.size()) {
      c.fail("free_list_ entry ", f, " out of slab range");
      continue;
    }
    if (!free_set.insert(f).second) c.fail("duplicate free_list_ entry ", f);
    if (on_list.contains(f)) {
      c.fail("slot ", f, " is both free-listed and on a list");
    }
  }
  if (order.size() + q.free_list_.size() != slab.size()) {
    c.fail("slab has ", slab.size(), " slots but resident (", order.size(),
           ") + free (", q.free_list_.size(), ") = ",
           order.size() + q.free_list_.size());
  }

  return report;
}

template <std::size_t kLists>
AuditReport Inspector::check(const FifoHistory<kLists>& g, HashFn hash) {
  using History = FifoHistory<kLists>;
  AuditReport report;
  Collector c(report);

  // Per list: the ring window, live records, bytes, id uniqueness.
  std::size_t live_total = 0;
  for (std::size_t l = 0; l < kLists; ++l) {
    const auto& r = g.rings_[l];
    const std::size_t len = r.recs.size();
    if (len != 0 && ((len & (len - 1)) != 0 || r.mask != len - 1)) {
      c.fail("list ", l, ": ring length ", len, " is not a power of two ",
             "matching mask ", r.mask);
      return report;  // positions cannot be resolved safely
    }
    const std::uint32_t window = r.tail - r.head;
    if (window > len) {
      c.fail("list ", l, ": window of ", window, " records exceeds the ring ",
             "length ", len);
      return report;
    }
    std::uint64_t sum = 0;
    std::size_t live = 0;
    std::unordered_set<std::uint64_t> ids;
    for (std::uint32_t p = r.head; p != r.tail; ++p) {
      const auto& rec = r.at(p);
      if (!rec.live) continue;
      ++live;
      sum += rec.size;
      if (!ids.insert(rec.id).second) {
        c.fail("list ", l, ": duplicate live record id ", rec.id);
      }
      if (rec.size > g.capacity_) {
        c.fail("list ", l, ": record ", rec.id, " of size ", rec.size,
               " individually exceeds capacity ", g.capacity_);
      }
    }
    if (live != r.live) {
      c.fail("list ", l, ": count is ", r.live, " but the ring holds ", live,
             " live records");
    }
    if (sum != r.used) {
      c.fail("list ", l, ": used_bytes_ is ", r.used,
             " but live record sizes sum to ", sum);
    }
    if (r.used > g.capacity_) {
      c.fail("list ", l, ": used_bytes_ ", r.used, " exceeds capacity ",
             g.capacity_);
    }
    live_total += live;
  }

  // The index: one slot per live record, each reachable from its home.
  const auto& slots = g.slots_;
  const std::size_t n = slots.size();
  if (n != 0 && ((n & (n - 1)) != 0 || g.mask_ != n - 1)) {
    c.fail("index length ", n, " is not a power of two matching mask ",
           g.mask_);
    return report;
  }
  std::size_t used = 0;
  std::unordered_set<std::uint64_t> targets;  // list << 32 | ring position
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = slots[i];
    if (s.ref == History::kEmpty) continue;
    ++used;
    const std::size_t l = History::list_of(s.ref);
    if (l >= kLists) {
      c.fail("slot ", i, " names list ", l, " of ", kLists);
      continue;
    }
    const auto& r = g.rings_[l];
    const std::uint32_t pos = s.ref & History::kPosMask;
    const std::uint32_t offset = (pos - r.head) & History::kPosMask;
    if (offset >= r.tail - r.head) {
      c.fail("slot ", i, " points at list ", l, " position ", pos,
             ", outside the ring window");
      continue;
    }
    const auto& rec = r.at(pos);
    if (!rec.live) {
      c.fail("slot ", i, " points at a tombstone (list ", l, ", id ", rec.id,
             ")");
    }
    if (!targets.insert((std::uint64_t{l} << 32) | pos).second) {
      c.fail("two slots point at list ", l, " position ", pos);
    }
    if (s.tag != rec.htag ||
        rec.htag != static_cast<std::uint32_t>(hash(rec.id))) {
      c.fail("slot ", i, " tag ", s.tag, " / record tag ", rec.htag,
             " do not match the hash of id ", rec.id);
    }
    for (std::size_t j = s.tag & g.mask_; j != i; j = (j + 1) & g.mask_) {
      if (slots[j].ref == History::kEmpty) {
        c.fail("slot ", i, " is unreachable from its home ",
               s.tag & g.mask_);
        break;
      }
    }
  }
  if (used != g.size_) {
    c.fail("index size is ", g.size_, " but ", used, " slots are used");
  }
  if (used != live_total) {
    c.fail("index holds ", used, " slots but the rings hold ", live_total,
           " live records");
  }
  if (n != 0 && used * 2 > n) {
    c.fail("index is ", used, "/", n, " full, past its 1/2 load bound");
  }
  return report;
}

template <std::size_t kLists>
std::vector<std::uint64_t> Inspector::history_ids(const FifoHistory<kLists>& g,
                                                  std::size_t list) {
  const auto& r = g.rings_[list];
  std::vector<std::uint64_t> out;
  out.reserve(r.live);
  for (std::uint32_t p = r.tail; p != r.head;) {
    const auto& rec = r.at(--p);
    if (rec.live) out.push_back(rec.id);
  }
  return out;
}

template AuditReport Inspector::check(const FifoHistory<1>&, HashFn);
template AuditReport Inspector::check(const FifoHistory<2>&, HashFn);
template std::vector<std::uint64_t> Inspector::history_ids(
    const FifoHistory<1>&, std::size_t);
template std::vector<std::uint64_t> Inspector::history_ids(
    const FifoHistory<2>&, std::size_t);

}  // namespace cdn::audit
