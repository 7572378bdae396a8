#include "sim/audit/reference_model.hpp"

#include <algorithm>
#include <cassert>

namespace cdn::audit {

std::list<RefLruModel::Entry>::iterator RefLruModel::find(std::uint64_t id) {
  return std::find_if(list_.begin(), list_.end(),
                      [id](const Entry& e) { return e.id == id; });
}

bool RefLruModel::contains(std::uint64_t id) const {
  return std::any_of(list_.begin(), list_.end(),
                     [id](const Entry& e) { return e.id == id; });
}

void RefLruModel::insert_mru(std::uint64_t id, std::uint64_t size) {
  assert(!contains(id));
  list_.push_front(Entry{id, size});
}

void RefLruModel::insert_lru(std::uint64_t id, std::uint64_t size) {
  assert(!contains(id));
  list_.push_back(Entry{id, size});
}

void RefLruModel::touch_mru(std::uint64_t id) {
  auto it = find(id);
  if (it == list_.end()) return;
  list_.splice(list_.begin(), list_, it);
}

void RefLruModel::move_up_one(std::uint64_t id) {
  auto it = find(id);
  if (it == list_.end() || it == list_.begin()) return;
  auto prev = std::prev(it);
  std::iter_swap(it, prev);
}

void RefLruModel::demote_lru(std::uint64_t id) {
  auto it = find(id);
  if (it == list_.end()) return;
  list_.splice(list_.end(), list_, it);
}

RefLruModel::Entry RefLruModel::pop_lru() {
  assert(!list_.empty());
  Entry e = list_.back();
  list_.pop_back();
  return e;
}

bool RefLruModel::erase(std::uint64_t id, Entry* out) {
  auto it = find(id);
  if (it == list_.end()) return false;
  if (out) *out = *it;
  list_.erase(it);
  return true;
}

std::uint64_t RefLruModel::used_bytes() const {
  std::uint64_t sum = 0;
  for (const Entry& e : list_) sum += e.size;
  return sum;
}

std::vector<std::uint64_t> RefLruModel::ids_lru_to_mru() const {
  std::vector<std::uint64_t> out;
  out.reserve(list_.size());
  for (auto it = list_.rbegin(); it != list_.rend(); ++it) {
    out.push_back(it->id);
  }
  return out;
}

bool RefGhostModel::contains(std::uint64_t id) const {
  return std::any_of(fifo_.begin(), fifo_.end(),
                     [id](const Rec& r) { return r.id == id; });
}

void RefGhostModel::add(std::uint64_t id, std::uint64_t size, bool tag) {
  erase(id);
  if (size > capacity_) return;
  fifo_.push_front(Rec{id, size, tag});
  while (used_bytes() > capacity_ && !fifo_.empty()) fifo_.pop_back();
}

bool RefGhostModel::erase(std::uint64_t id, std::uint64_t* size_out,
                          bool* tag_out) {
  auto it = std::find_if(fifo_.begin(), fifo_.end(),
                         [id](const Rec& r) { return r.id == id; });
  if (it == fifo_.end()) return false;
  if (size_out) *size_out = it->size;
  if (tag_out) *tag_out = it->tag;
  fifo_.erase(it);
  return true;
}

std::uint64_t RefGhostModel::used_bytes() const {
  std::uint64_t sum = 0;
  for (const Rec& r : fifo_) sum += r.size;
  return sum;
}

std::vector<std::uint64_t> RefGhostModel::ids_newest_to_oldest() const {
  std::vector<std::uint64_t> out;
  out.reserve(fifo_.size());
  for (const Rec& r : fifo_) out.push_back(r.id);
  return out;
}

}  // namespace cdn::audit
