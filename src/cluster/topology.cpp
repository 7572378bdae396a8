#include "cluster/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cluster/latency_model.hpp"

namespace cdn::cluster {

Topology::Topology(std::vector<Tier> tiers) : tiers_(std::move(tiers)) {
  if (tiers_.empty()) {
    throw std::invalid_argument("Topology: need at least one tier");
  }
  if (tiers_.front().placement == Placement::kChildBlock) {
    throw std::invalid_argument("Topology: the edge tier has no children");
  }
  stats_.reserve(tiers_.size());
  for (const Tier& tier : tiers_) {
    if (tier.nodes.empty()) {
      throw std::invalid_argument("Topology: every tier needs a node");
    }
    for (const CachePtr& node : tier.nodes) {
      if (!node) throw std::invalid_argument("Topology: null node");
    }
    stats_.emplace_back(tier.nodes.size());
  }
}

std::size_t Topology::place(std::size_t t, std::uint64_t id,
                            std::uint64_t index, std::size_t child) const {
  const Tier& tier = tiers_[t];
  const std::size_t n = tier.nodes.size();
  switch (tier.placement) {
    case Placement::kSaltedMod:
      return route_mod(id, tier.salt, n);
    case Placement::kRoundRobin:
      return static_cast<std::size_t>(index % n);
    case Placement::kChildBlock:
      return child * n / tiers_[t - 1].nodes.size();
  }
  return 0;
}

std::size_t Topology::access(const Request& req, std::uint64_t index) {
  std::size_t node = 0;
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    node = place(t, req.id, index, node);
    const bool hit = tiers_[t].nodes[node]->access(req);
    stats_[t][node].record(req.size, hit);
    if (hit) return t;
  }
  stats_.back()[node].record_origin_fetch(req.size);
  return tiers_.size();
}

FlowStats Topology::tier_stats(std::size_t t) const {
  FlowStats sum;
  for (const FlowStats& s : stats_[t]) sum += s;
  return sum;
}

std::vector<Tier> tdc_chain(std::vector<CachePtr> oc,
                            std::vector<CachePtr> dc) {
  std::vector<Tier> tiers(2);
  tiers[0] = {Placement::kSaltedMod, kOcRouteSalt, std::move(oc)};
  tiers[1] = {Placement::kSaltedMod, kDcRouteSalt, std::move(dc)};
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
    const std::size_t served = topo.access(req, i);
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
