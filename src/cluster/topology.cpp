#include "cluster/topology.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/latency_model.hpp"

namespace cdn::cluster {

namespace {

/// Validates a spec and returns its total capacity.
std::uint64_t checked_capacity(const std::vector<Tier>& tiers) {
  if (tiers.empty()) {
    throw std::invalid_argument("Topology: need at least one tier");
  }
  if (tiers.front().placement == Placement::kChildBlock) {
    throw std::invalid_argument("Topology: the edge tier has no children");
  }
  std::uint64_t capacity = 0;
  for (const Tier& tier : tiers) {
    if (tier.nodes.empty()) {
      throw std::invalid_argument("Topology: every tier needs a node");
    }
    for (const CachePtr& node : tier.nodes) {
      if (!node) throw std::invalid_argument("Topology: null node");
      capacity += node->capacity();
    }
  }
  return capacity;
}

}  // namespace

Topology::Topology(std::vector<Tier> tiers) : Cache(checked_capacity(tiers)) {
  // Named after each tier's first policy and node count: "topology(SCIP*4)",
  // "topology(SCIP*2>LRU*1)".
  name_ = "topology(";
  tiers_.reserve(tiers.size());
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    Tier& spec = tiers[t];
    if (t != 0) name_ += '>';
    name_ += spec.nodes.front()->name();
    name_ += '*';
    name_ += std::to_string(spec.nodes.size());
    NodeTier& tier = tiers_.emplace_back(
        NodeTier{spec.placement, spec.salt, {}});
    for (std::size_t n = 0; n < spec.nodes.size(); ++n) {
      tier.nodes.push_back(std::make_unique<Node>(
          std::to_string(t) + "." + std::to_string(n),
          std::move(spec.nodes[n])));
    }
    max_nodes_ = std::max(max_nodes_, tier.nodes.size());
    round_robin_ = round_robin_ || spec.placement == Placement::kRoundRobin;
  }
  name_ += ")";
}

std::size_t Topology::place(std::size_t t, std::uint64_t id,
                            std::uint64_t index, std::size_t child) const {
  return place_hashed(t, id, hash64(id), index, child);
}

std::size_t Topology::place_hashed(std::size_t t, std::uint64_t id,
                                   std::uint64_t h, std::uint64_t index,
                                   std::size_t child) const {
  const NodeTier& tier = tiers_[t];
  const std::size_t n = tier.nodes.size();
  switch (tier.placement) {
    case Placement::kSaltedMod:
      // hash64(id ^ 0) == h: a salt-0 tier reuses the request's hash.
      return tier.salt == 0 ? reduce_mod(h, n) : route_mod(id, tier.salt, n);
    case Placement::kRoundRobin:
      return static_cast<std::size_t>(index % n);
    case Placement::kChildBlock:
      return child * n / tiers_[t - 1].nodes.size();
  }
  return 0;
}

std::size_t Topology::serve(const Request& req, std::uint64_t index) {
  return serve_hashed(req, index, hash64(req.id));
}

std::size_t Topology::serve_hashed(const Request& req, std::uint64_t index,
                                   std::uint64_t h) {
  std::size_t node = 0;
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    node = place_hashed(t, req.id, h, index, node);
    if (tiers_[t].nodes[node]->serve(req, h)) return t;
  }
  return tiers_.size();
}

bool Topology::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool Topology::access_hashed(const Request& req, std::uint64_t h) {
  const std::uint64_t index =
      round_robin_ ? next_index_.fetch_add(1, std::memory_order_relaxed) : 0;
  return serve_hashed(req, index, h) < tiers_.size();
}

bool Topology::contains(std::uint64_t id) const {
  return contains_hashed(id, hash64(id));
}

bool Topology::contains_hashed(std::uint64_t id, std::uint64_t h) const {
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    const NodeTier& tier = tiers_[t];
    if (tier.placement == Placement::kSaltedMod) {
      if (tier.nodes[place_hashed(t, id, h, 0, 0)]->contains_hashed(id, h)) {
        return true;
      }
      continue;
    }
    for (const auto& node : tier.nodes) {
      if (node->contains_hashed(id, h)) return true;
    }
  }
  return false;
}

void Topology::prefetch(std::uint64_t id) const noexcept {
  prefetch_hashed(id, hash64(id));
}

void Topology::prefetch_hashed(std::uint64_t id,
                               std::uint64_t h) const noexcept {
  const NodeTier& edge = tiers_.front();
  if (edge.placement != Placement::kSaltedMod) return;
  edge.nodes[place_hashed(0, id, h, 0, 0)]->prefetch_hashed(id, h);
}

std::uint64_t Topology::used_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    total += tier_stats(t).used_bytes;
  }
  return total;
}

std::uint64_t Topology::metadata_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    total += tier_stats(t).metadata_bytes;
  }
  return total;
}

void Topology::access_batch(const Request* reqs, std::size_t n,
                            bool* hits_out, std::size_t first_node) {
  // Scratch: the requests' hashes, the ones still unserved (input order),
  // each request's node at the current tier (its child at the next), and
  // per tier a stable counting sort of the unserved requests into
  // contiguous per-node runs. O(n + nodes) per tier, whatever the node
  // count: a per-node filter scan costs O(n * nodes) data-dependent
  // branches instead, and measurably decays throughput as nodes grow.
  constexpr std::size_t kStackN = 1024;
  constexpr std::size_t kStackNodes = 64;
  std::uint64_t stack_hashes[kStackN];
  std::uint32_t stack_scratch[3 * kStackN + 3 * kStackNodes + 1];
  std::vector<std::uint64_t> heap_hashes;
  std::vector<std::uint32_t> heap;
  std::uint64_t* hashes = stack_hashes;
  std::uint32_t* active = stack_scratch;
  if (n > kStackN || max_nodes_ > kStackNodes) {
    // detlint:allow(alloc-in-hot, oversized-batch spill: the stack arrays cover every bench/srv batch shape; the heap branch is the cold fallback)
    heap_hashes.resize(n);
    // detlint:allow(alloc-in-hot, oversized-batch spill: the stack arrays cover every bench/srv batch shape; the heap branch is the cold fallback)
    heap.resize(3 * n + 3 * max_nodes_ + 1);
    hashes = heap_hashes.data();
    active = heap.data();
  }
  std::uint32_t* routes = active + n;
  std::uint32_t* order = routes + n;
  std::uint32_t* start = order + n;
  std::uint32_t* cursor = start + max_nodes_ + 1;
  std::uint32_t* done = cursor + max_nodes_;

  // Batch request i is request number base + i, as n access() calls.
  const std::uint64_t base =
      round_robin_ ? next_index_.fetch_add(n, std::memory_order_relaxed) : 0;
  std::size_t count = n;
  for (std::size_t t = 0; t < tiers_.size() && count > 0; ++t) {
    const std::vector<std::unique_ptr<Node>>& nodes = tiers_[t].nodes;
    const std::size_t n_nodes = nodes.size();
    for (std::size_t s = 0; s <= n_nodes; ++s) start[s] = 0;
    if (t == 0) {
      // The whole batch, in input order; the edge has no children.
      for (std::size_t i = 0; i < n; ++i) {
        hashes[i] = hash64(reqs[i].id);
        active[i] = static_cast<std::uint32_t>(i);
        routes[i] = static_cast<std::uint32_t>(
            place_hashed(0, reqs[i].id, hashes[i], base + i, 0));
        ++start[routes[i] + 1];
      }
    } else {
      for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t i = active[k];
        routes[i] = static_cast<std::uint32_t>(
            place_hashed(t, reqs[i].id, hashes[i], base + i, routes[i]));
        ++start[routes[i] + 1];
      }
    }
    for (std::size_t s = 0; s < n_nodes; ++s) {
      start[s + 1] += start[s];
      cursor[s] = start[s];
    }
    for (std::size_t k = 0; k < count; ++k) {
      order[cursor[routes[active[k]]]++] = active[k];
    }
    // Opportunistic visit order: sweep the pending nodes with try_lock and
    // serve whichever is free; block only when a whole sweep found every
    // pending node held elsewhere. Nodes are independent, so the order the
    // locks allow changes nothing about the result — but "my node is busy"
    // becomes useful work on another node, which is why batch throughput
    // improves with the node count under contention.
    std::size_t pending = 0;
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      done[idx] = start[idx] == start[idx + 1];  // untouched: nothing to do
      pending += !done[idx];
    }
    while (pending > 0) {
      bool progressed = false;
      for (std::size_t off = 0; off < n_nodes && pending > 0; ++off) {
        const std::size_t idx = (first_node + off) % n_nodes;
        if (done[idx] ||
            !nodes[idx]->try_serve_run(reqs, hashes, order, start[idx],
                                       start[idx + 1], hits_out)) {
          continue;
        }
        done[idx] = true;
        --pending;
        progressed = true;
      }
      if (progressed || pending == 0) continue;
      // Every pending node is held elsewhere: block on the first one in
      // walk order to guarantee progress without spinning.
      for (std::size_t off = 0; off < n_nodes; ++off) {
        const std::size_t idx = (first_node + off) % n_nodes;
        if (done[idx]) continue;
        nodes[idx]->serve_run(reqs, hashes, order, start[idx],
                              start[idx + 1], hits_out);
        done[idx] = true;
        --pending;
        break;
      }
    }
    if (t + 1 == tiers_.size()) break;
    // This tier's misses, in input order, are the next tier's batch.
    std::size_t misses = 0;
    for (std::size_t k = 0; k < count; ++k) {
      if (!hits_out[active[k]]) active[misses++] = active[k];
    }
    count = misses;
  }
}

NodeStats Topology::stats(std::size_t t, std::size_t node) const {
  NodeStats s = tiers_[t].nodes[node]->snapshot();
  if (t + 1 == tiers_.size()) s.derive_origin_fetches();
  return s;
}

NodeStats Topology::tier_stats(std::size_t t) const {
  NodeStats sum;
  for (std::size_t n = 0; n < tiers_[t].nodes.size(); ++n) sum += stats(t, n);
  return sum;
}

void Topology::with_node_cache(std::size_t t, std::size_t node,
                               const std::function<void(Cache&)>& fn) {
  tiers_[t].nodes[node]->with_cache(fn);
}

std::vector<Tier> tdc_chain(std::vector<CachePtr> oc,
                            std::vector<CachePtr> dc) {
  std::vector<Tier> tiers(2);
  tiers[0] = {Placement::kSaltedMod, kOcRouteSalt, std::move(oc)};
  tiers[1] = {Placement::kSaltedMod, kDcRouteSalt, std::move(dc)};
  return tiers;
}

std::vector<Tier> striped(
    std::uint64_t capacity, std::size_t nodes,
    const std::function<CachePtr(std::uint64_t, std::size_t)>& make) {
  std::vector<Tier> tiers(1);
  for (std::size_t i = 0; i < nodes; ++i) {
    tiers[0].nodes.push_back(make(capacity_share(capacity, nodes, i), i));
  }
  return tiers;
}

ReplayResult replay(Topology& topo, const Trace& trace) {
  const LatencyModel latency;
  const std::size_t n_tiers = topo.tier_count();
  ReplayResult res;
  res.total.tiers.resize(n_tiers);
  if (trace.empty()) return res;

  // Windows count from the earliest time, so a window number is a pure
  // function of the times, whatever their order or magnitude.
  std::int64_t t0 = trace.requests.front().time;
  for (const Request& r : trace.requests) t0 = std::min(t0, r.time);
  const auto window_of = [t0](std::int64_t time) {
    const double since = static_cast<double>(time) - static_cast<double>(t0);
    return static_cast<std::uint64_t>(std::floor(since / kWindowMs));
  };
  // Only windows that hold a request get a record. Candidates are the
  // window numbers where trace order changes window: few for a time-sorted
  // trace, never more than the requests.
  std::vector<std::uint64_t> keys;
  for (const Request& r : trace.requests) {
    const std::uint64_t w = window_of(r.time);
    if (keys.empty() || keys.back() != w) keys.push_back(w);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  res.start_ms = static_cast<double>(t0);
  res.windows.resize(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    res.windows[k].index = keys[k];
    res.windows[k].tiers.resize(n_tiers);
  }

  std::size_t slot = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& req = trace.requests[i];
    const std::size_t served = topo.serve(req, i);
    const std::uint64_t w = window_of(req.time);
    if (keys[slot] != w) {
      slot = static_cast<std::size_t>(
          std::lower_bound(keys.begin(), keys.end(), w) - keys.begin());
    }
    FlowWindow& win = res.windows[slot];
    for (std::size_t t = 0; t <= served && t < n_tiers; ++t) {
      win.tiers[t].record(req.size, t == served);
    }
    if (served == n_tiers) {
      win.tiers.back().record_origin_fetch(req.size);
      win.latency_ms_sum += latency.origin_ms(req.size);
    } else if (served == 0) {
      win.latency_ms_sum += latency.oc_hit_ms(req.size);
    } else {
      win.latency_ms_sum += latency.dc_hit_ms(req.size);
    }
  }

  // Run totals in window order (the order the per-window sums add in).
  for (const FlowWindow& win : res.windows) {
    for (std::size_t t = 0; t < n_tiers; ++t) {
      res.total.tiers[t] += win.tiers[t];
    }
    res.total.latency_ms_sum += win.latency_ms_sum;
  }
  return res;
}

}  // namespace cdn::cluster
