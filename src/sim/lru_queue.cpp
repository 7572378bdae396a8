#include "sim/lru_queue.hpp"

#include <cassert>

namespace cdn {

LruQueue::Node* LruQueue::find(std::uint64_t id) {
  return find_hashed(id, hash64(id));
}

const LruQueue::Node* LruQueue::find(std::uint64_t id) const {
  const std::uint32_t* idx = index_.find(id);
  return idx == nullptr ? nullptr : &slab_[*idx];
}

LruQueue::Node* LruQueue::find_hashed(std::uint64_t id, std::uint64_t h) {
  const std::uint32_t* idx = index_.find_hashed(id, h);
  return idx == nullptr ? nullptr : &slab_[*idx];
}

std::uint32_t LruQueue::alloc_node() {
  if (!free_list_.empty()) {
    const std::uint32_t idx = free_list_.back();
    free_list_.pop_back();
    return idx;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void LruQueue::free_node(std::uint32_t idx) {
  // Swap-remove from the dense occupancy vector.
  const std::uint32_t pos = slab_[idx].dense_pos_;
  const std::uint32_t last = dense_.back();
  dense_[pos] = last;
  slab_[last].dense_pos_ = pos;
  dense_.pop_back();
  slab_[idx] = Node{};  // reset for reuse
  free_list_.push_back(idx);
}

void LruQueue::link_mru(std::uint32_t idx) {
  Node& n = slab_[idx];
  List& l = lists_[n.list_];
  n.prev_ = kNull;
  n.next_ = l.head;
  if (l.head != kNull) slab_[l.head].prev_ = idx;
  l.head = idx;
  if (l.tail == kNull) {
    l.tail = idx;
    l.tail_id = n.id;
    l.tail_pos = n.insert_pos;
  }
}

void LruQueue::link_lru(std::uint32_t idx) {
  Node& n = slab_[idx];
  List& l = lists_[n.list_];
  n.next_ = kNull;
  n.prev_ = l.tail;
  if (l.tail != kNull) slab_[l.tail].next_ = idx;
  l.tail = idx;
  l.tail_id = n.id;
  l.tail_pos = n.insert_pos;
  if (l.head == kNull) l.head = idx;
}

void LruQueue::unlink(std::uint32_t idx) {
  Node& n = slab_[idx];
  List& l = lists_[n.list_];
  if (n.prev_ != kNull) {
    slab_[n.prev_].next_ = n.next_;
  } else {
    l.head = n.next_;
  }
  if (n.next_ != kNull) {
    slab_[n.next_].prev_ = n.prev_;
  } else {
    l.tail = n.prev_;
    if (n.prev_ != kNull) {
      l.tail_id = slab_[n.prev_].id;
      l.tail_pos = slab_[n.prev_].insert_pos;
    }
  }
  n.prev_ = n.next_ = kNull;
}

void LruQueue::unlink_to(std::uint32_t idx, std::size_t list) {
  assert(list < kMaxLists);
  unlink(idx);
  Node& n = slab_[idx];
  if (n.list_ == list) return;
  List& from = lists_[n.list_];
  List& to = lists_[list];
  from.bytes -= n.size;
  --from.count;
  to.bytes += n.size;
  ++to.count;
  n.list_ = static_cast<std::uint8_t>(list);
}

LruQueue::Node& LruQueue::insert_hashed(std::uint64_t id, std::uint64_t size,
                                        std::uint64_t h, std::size_t list,
                                        bool mru) {
  assert(!contains(id));
  assert(list < kMaxLists);
  const std::uint32_t idx = alloc_node();
  Node& n = slab_[idx];
  n.id = id;
  n.size = size;
  n.insert_pos = mru ? 1 : 0;
  n.list_ = static_cast<std::uint8_t>(list);
  n.dense_pos_ = static_cast<std::uint32_t>(dense_.size());
  dense_.push_back(idx);
  index_.insert_hashed(id, idx, h);
  lists_[list].bytes += size;
  ++lists_[list].count;
  if (mru) {
    link_mru(idx);
  } else {
    link_lru(idx);
  }
  return n;
}

void LruQueue::touch_mru(std::uint64_t id) {
  const std::uint32_t* p = index_.find(id);
  if (p != nullptr) touch_mru(slab_[*p]);
}

void LruQueue::touch_mru(Node& n, std::size_t list) {
  const std::uint32_t idx = slot_of(n);
  if (lists_[list].head == idx) return;
  unlink_to(idx, list);
  link_mru(idx);
}

void LruQueue::demote_lru(Node& n) {
  const std::uint32_t idx = slot_of(n);
  if (lists_[n.list_].tail == idx) return;
  unlink(idx);
  link_lru(idx);
}

LruQueue::Node& LruQueue::reinsert_mru(Node& n, std::size_t list) {
  const std::uint32_t idx = slot_of(n);
  n.insert_pos = 1;  // before relink: link_* reads it for the tail shadow
  unlink_to(idx, list);
  link_mru(idx);
  return n;
}

LruQueue::Node& LruQueue::reinsert_lru(Node& n, std::size_t list) {
  const std::uint32_t idx = slot_of(n);
  n.insert_pos = 0;  // before relink: link_* reads it for the tail shadow
  unlink_to(idx, list);
  link_lru(idx);
  return n;
}

void LruQueue::move_up_one(std::uint64_t id) {
  const std::uint32_t* found = index_.find(id);
  if (found == nullptr) return;
  const std::uint32_t idx = *found;
  const std::uint32_t prev = slab_[idx].prev_;
  if (prev == kNull) return;  // already MRU
  // Swap positions of idx and prev in the list by relinking idx before prev.
  unlink(idx);
  Node& n = slab_[idx];
  Node& p = slab_[prev];
  n.prev_ = p.prev_;
  n.next_ = prev;
  if (p.prev_ != kNull) {
    slab_[p.prev_].next_ = idx;
  } else {
    lists_[n.list_].head = idx;
  }
  p.prev_ = idx;
}

void LruQueue::demote_lru(std::uint64_t id) {
  const std::uint32_t* p = index_.find(id);
  if (p != nullptr) demote_lru(slab_[*p]);
}

LruQueue::Node LruQueue::pop_lru(std::uint64_t* victim_hash_out,
                                 std::size_t list) {
  List& l = lists_[list];
  assert(l.tail != kNull);
  const std::uint32_t idx = l.tail;
#if defined(__GNUC__) || defined(__clang__)
  // free_node's swap-remove writes through slab_[dense_.back()] — a random
  // slot, cold almost every eviction. Its address is known before the
  // victim read / hash / index erase chain; start the fetch under them.
  __builtin_prefetch(&slab_[dense_.back()], 1);
#endif
  Node copy = slab_[idx];
  const std::uint64_t h = hash64(copy.id);
  unlink(idx);
  index_.erase_hashed(copy.id, h);
  l.bytes -= copy.size;
  --l.count;
  free_node(idx);
  *victim_hash_out = h;
  return copy;
}

bool LruQueue::erase(std::uint64_t id, Node* out) {
  return erase_hashed(id, hash64(id), out);
}

bool LruQueue::erase_hashed(std::uint64_t id, std::uint64_t h, Node* out) {
  const std::uint32_t* p = index_.find_hashed(id, h);
  if (p == nullptr) return false;
  const std::uint32_t idx = *p;
  if (out) *out = slab_[idx];
  unlink(idx);
  List& l = lists_[slab_[idx].list_];
  l.bytes -= slab_[idx].size;
  --l.count;
  index_.erase_hashed(id, h);
  free_node(idx);
  return true;
}

void LruQueue::reserve(std::size_t n) {
  slab_.reserve(n);
  dense_.reserve(n);
  free_list_.reserve(n);
  index_.reserve(n);
}

LruQueue::Node& LruQueue::sample(Rng& rng) {
  assert(!dense_.empty());
  return slab_[dense_[rng.below(dense_.size())]];
}

void LruQueue::for_each_from_lru(const std::function<bool(const Node&)>& fn,
                                 std::size_t list) const {
  for (std::uint32_t idx = lists_[list].tail; idx != kNull;
       idx = slab_[idx].prev_) {
    if (!fn(slab_[idx])) return;
  }
}

// detlint:allow(accounting, slab_/dense_/index_ are the sizeof-derived kPerEntry term; free-listed slots hold no live metadata)
std::uint64_t LruQueue::metadata_bytes() const noexcept {
  // Slab node + dense slot + flat-index share. The index share is three
  // inline slots: the open-addressing table runs between 1/4 and 1/2
  // occupancy (max load 1/2 with power-of-two doubling), so 3x amortizes
  // the slack at its midpoint.
  // Count live entries only: free-listed slab slots hold no object metadata,
  // and counting them overstated the footprint after churn (the slab is a
  // high-water mark, the index is the live population).
  constexpr std::uint64_t kPerEntry =
      sizeof(Node) + 4 + 3 * FlatMap<std::uint64_t, std::uint32_t>::kSlotBytes;
  return static_cast<std::uint64_t>(index_.size()) * kPerEntry;
}

}  // namespace cdn
