#include "sim/audit/differential.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

#include "sim/audit/audited_queue.hpp"
#include "sim/audit/invariants.hpp"
#include "sim/audit/reference_model.hpp"
#include "util/rng.hpp"

namespace cdn::audit {

namespace {

template <typename... Parts>
DiffResult diverged(std::size_t op_index, const Parts&... parts) {
  std::ostringstream os;
  os << "divergence at op " << op_index << ": ";
  (os << ... << parts);
  return DiffResult{false, op_index, os.str()};
}

/// Collects one list's ids LRU->MRU via the public traversal.
std::vector<std::uint64_t> queue_ids_lru_to_mru(const LruQueue& q,
                                                std::size_t list) {
  std::vector<std::uint64_t> out;
  out.reserve(q.count(list));
  q.for_each_from_lru(
      [&](const LruQueue::Node& n) {
        out.push_back(n.id);
        return true;
      },
      list);
  return out;
}

}  // namespace

DiffResult run_queue_differential(const DiffConfig& cfg) {
  const std::uint64_t cap =
      cfg.capacity_bytes == 0 ? kNoCapacity : cfg.capacity_bytes;
  const std::size_t lists = cfg.lists;
  if (lists == 0 || lists > LruQueue::kMaxLists) {
    return DiffResult{false, 0, "lists must be in 1..kMaxLists"};
  }
  AuditedQueue q(cap);
  std::vector<RefLruModel> refs(lists);
  Rng rng(cfg.seed);
  // One list draws nothing, so the one-list op sequence is unchanged.
  const auto pick = [&] { return lists == 1 ? 0 : rng.below(lists); };
  const auto used = [&] {
    std::uint64_t total = 0;
    for (const auto& r : refs) total += r.used_bytes();
    return total;
  };
  const auto home = [&](std::uint64_t id) -> RefLruModel* {
    for (auto& r : refs) {
      if (r.contains(id)) return &r;
    }
    return nullptr;
  };

  for (std::size_t op = 0; op < cfg.num_ops; ++op) {
    const std::uint64_t id = rng.below(cfg.id_space);
    const std::uint64_t size = 1 + rng.below(cfg.max_size);
    RefLruModel* const ref = home(id);
    try {
      switch (rng.below(lists == 1 ? 8 : 11)) {
        case 0:  // capacity-bounded admission at MRU (pop-to-fit, the way
                 // every cache and shadow monitor drives the queue)
        case 1: {
          if (ref != nullptr) break;
          if (cap != kNoCapacity && size > cap) break;
          const std::size_t list = pick();
          while (cap != kNoCapacity && used() + size > cap) {
            std::size_t from = pick();
            while (refs[from].empty()) from = (from + 1) % lists;
            const std::uint64_t victim = q.pop_lru(from).id;
            const RefLruModel::Entry ref_victim = refs[from].pop_lru();
            if (victim != ref_victim.id) {
              return diverged(op, "eviction order of list ", from,
                              ": queue evicted ", victim,
                              ", reference evicted ", ref_victim.id);
            }
          }
          q.insert_mru(id, size, list);
          refs[list].insert_mru(id, size);
          break;
        }
        case 2: {  // insert at LRU (LIP arm)
          if (ref != nullptr) break;
          if (cap != kNoCapacity && used() + size > cap) break;
          const std::size_t list = pick();
          q.insert_lru(id, size, list);
          refs[list].insert_lru(id, size);
          break;
        }
        case 3:
          q.touch_mru(id);
          if (ref != nullptr) ref->touch_mru(id);
          break;
        case 4:
          q.move_up_one(id);
          if (ref != nullptr) ref->move_up_one(id);
          break;
        case 5:
          q.demote_lru(id);
          if (ref != nullptr) ref->demote_lru(id);
          break;
        case 6: {
          const bool a = q.erase(id);
          const bool b = ref != nullptr && ref->erase(id);
          if (a != b) {
            return diverged(op, "erase(", id, ") returned ", a,
                            " but reference returned ", b);
          }
          break;
        }
        case 7: {  // sampling must return a resident object
          if (std::all_of(refs.begin(), refs.end(),
                          [](const RefLruModel& r) { return r.empty(); })) {
            break;
          }
          const std::uint64_t sampled = q.sample(rng).id;
          if (home(sampled) == nullptr) {
            return diverged(op, "sampled id ", sampled,
                            " is not resident in the reference");
          }
          break;
        }
        case 8:    // relinks of a found node into any list, at the MRU end
        case 9: {  // or, for reinsert_lru, the LRU end
          const std::size_t list = pick();
          const int how = static_cast<int>(rng.below(3));
          if (how == 0) {
            q.touch_mru(id, list);
          } else if (how == 1) {
            q.reinsert_mru(id, list);
          } else {
            q.reinsert_lru(id, list);
          }
          RefLruModel::Entry e{};
          if (ref == nullptr || !ref->erase(id, &e)) break;
          if (how == 2) {
            refs[list].insert_lru(e.id, e.size);
          } else {
            refs[list].insert_mru(e.id, e.size);
          }
          break;
        }
        case 10: {  // one step of a demotion cascade
          const std::size_t from = pick();
          const std::size_t to = pick();
          if (refs[from].empty()) break;
          q.move_lru(from, to);
          const RefLruModel::Entry e = refs[from].pop_lru();
          refs[to].insert_mru(e.id, e.size);
          break;
        }
      }
    } catch (const InvariantViolation& e) {
      return DiffResult{false, op, e.what()};
    }

    for (std::size_t l = 0; l < lists; ++l) {
      const RefLruModel& r = refs[l];
      if (q.count(l) != r.count()) {
        return diverged(op, "list ", l, " count: queue ", q.count(l),
                        ", reference ", r.count());
      }
      if (q.used_bytes(l) != r.used_bytes()) {
        return diverged(op, "list ", l, " used_bytes: queue ",
                        q.used_bytes(l), ", reference ", r.used_bytes());
      }
      if (!r.empty()) {
        if (q.mru_id(l) != r.mru_id()) {
          return diverged(op, "list ", l, " mru_id: queue ", q.mru_id(l),
                          ", reference ", r.mru_id());
        }
        if (q.lru_id(l) != r.lru_id()) {
          return diverged(op, "list ", l, " lru_id: queue ", q.lru_id(l),
                          ", reference ", r.lru_id());
        }
      }
      if (cfg.full_compare_interval != 0 &&
          op % cfg.full_compare_interval == 0 &&
          queue_ids_lru_to_mru(q.queue(), l) != r.ids_lru_to_mru()) {
        return diverged(op, "list ", l,
                        ": full LRU->MRU order differs from reference");
      }
    }
  }

  return DiffResult{true, cfg.num_ops, {}};
}

DiffResult run_ghost_differential(const DiffConfig& cfg) {
  AuditedHistory<1> g(cfg.capacity_bytes, cfg.hash);
  RefGhostModel ref(cfg.capacity_bytes);
  Rng rng(cfg.seed);

  for (std::size_t op = 0; op < cfg.num_ops; ++op) {
    const std::uint64_t id = rng.below(cfg.id_space);
    try {
      switch (rng.below(4)) {
        case 0:
        case 1: {
          // Occasionally oversized, exercising the reject-don't-thrash path.
          const std::uint64_t size = rng.chance(0.05)
                                         ? cfg.capacity_bytes + 1
                                         : 1 + rng.below(cfg.max_size);
          const bool tag = rng.chance(0.5);
          g.add(0, id, size, tag);
          ref.add(id, size, tag);
          break;
        }
        case 2: {
          std::uint64_t size_a = 0, size_b = 0;
          bool tag_a = false, tag_b = false;
          const bool a = g.erase(0, id, &size_a, &tag_a);
          const bool b = ref.erase(id, &size_b, &tag_b);
          if (a != b || (a && (size_a != size_b || tag_a != tag_b))) {
            return diverged(op, "erase(", id, ") disagrees with reference");
          }
          break;
        }
        case 3:
          if (g.contains(0, id) != ref.contains(id)) {
            return diverged(op, "contains(", id,
                            ") disagrees with reference");
          }
          break;
      }
    } catch (const InvariantViolation& e) {
      return DiffResult{false, op, e.what()};
    }

    if (g.count(0) != ref.count()) {
      return diverged(op, "count: ghost ", g.count(0), ", reference ",
                      ref.count());
    }
    if (g.used_bytes(0) != ref.used_bytes()) {
      return diverged(op, "used_bytes: ghost ", g.used_bytes(0),
                      ", reference ", ref.used_bytes());
    }
    if (cfg.full_compare_interval != 0 &&
        op % cfg.full_compare_interval == 0 &&
        Inspector::history_ids(g.history(), 0) !=
            ref.ids_newest_to_oldest()) {
      return diverged(op, "FIFO order differs from reference");
    }
  }

  return DiffResult{true, cfg.num_ops, {}};
}

DiffResult run_history_differential(const DiffConfig& cfg) {
  AuditedHistory<2> g(cfg.capacity_bytes, cfg.hash);
  std::array<RefGhostModel, 2> ref{RefGhostModel(cfg.capacity_bytes),
                                   RefGhostModel(cfg.capacity_bytes)};
  Rng rng(cfg.seed);

  for (std::size_t op = 0; op < cfg.num_ops; ++op) {
    const std::uint64_t id = rng.below(cfg.id_space);
    const std::size_t list = rng.below(2);
    try {
      const std::uint64_t dice = rng.below(20);
      if (dice < 8) {
        // A miss's DELETE probe of both lists (Algorithm 1, lines 6-13).
        const auto erased = g.erase_all(id);
        for (std::size_t l = 0; l < 2; ++l) {
          std::uint64_t size = 0;
          bool tag = false;
          const bool found = ref[l].erase(id, &size, &tag);
          if (erased[l].found != found ||
              (found && (erased[l].size != size || erased[l].tag != tag))) {
            return diverged(op, "erase_all(", id, ") disagrees with ",
                            "reference on list ", l);
          }
        }
      } else if (dice < 17) {
        // An eviction's ADD, occasionally oversized.
        const std::uint64_t size = rng.chance(0.05)
                                       ? cfg.capacity_bytes + 1
                                       : 1 + rng.below(cfg.max_size);
        const bool tag = rng.chance(0.5);
        g.add(list, id, size, tag);
        ref[list].add(id, size, tag);
      } else if (dice < 18) {
        std::uint64_t size_a = 0, size_b = 0;
        bool tag_a = false, tag_b = false;
        const bool a = g.erase(list, id, &size_a, &tag_a);
        const bool b = ref[list].erase(id, &size_b, &tag_b);
        if (a != b || (a && (size_a != size_b || tag_a != tag_b))) {
          return diverged(op, "erase(", list, ", ", id,
                          ") disagrees with reference");
        }
      } else if (g.contains(list, id) != ref[list].contains(id)) {
        return diverged(op, "contains(", list, ", ", id,
                        ") disagrees with reference");
      }
    } catch (const InvariantViolation& e) {
      return DiffResult{false, op, e.what()};
    }

    for (std::size_t l = 0; l < 2; ++l) {
      if (g.count(l) != ref[l].count()) {
        return diverged(op, "list ", l, " count: history ", g.count(l),
                        ", reference ", ref[l].count());
      }
      if (g.used_bytes(l) != ref[l].used_bytes()) {
        return diverged(op, "list ", l, " used_bytes: history ",
                        g.used_bytes(l), ", reference ", ref[l].used_bytes());
      }
      if (cfg.full_compare_interval != 0 &&
          op % cfg.full_compare_interval == 0 &&
          Inspector::history_ids(g.history(), l) !=
              ref[l].ids_newest_to_oldest()) {
        return diverged(op, "list ", l, " FIFO order differs from reference");
      }
    }
  }

  return DiffResult{true, cfg.num_ops, {}};
}

}  // namespace cdn::audit
