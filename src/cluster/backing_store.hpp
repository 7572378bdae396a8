// BackingStore: pluggable miss backend for the cluster layer.
//
// When every cluster node (and, for hot keys, every replica owner) misses,
// or a request misses every tier of a Topology (topology.hpp), the object
// is fetched from the backing store. The store models where those bytes
// come from and what they cost; the DC layer of the TDC chain becomes one
// concrete backend (`RemoteStore`, priced by LatencyModel's OC->DC hop)
// instead of hard-coded topology, and the paper's BTO ("Backing To
// Origin") bandwidth is simply the byte counter of an `OriginStore`.
//
// fetch() is deliberately non-virtual: it owns the accounting (fetch count,
// bytes, modeled time) and delegates only the latency model to the
// concrete store, so no backend can forget to count. Modeled time
// accumulates as integer microseconds — summing many small doubles would
// make totals depend on addition order, which the determinism lint
// (float-accum) rejects.
//
// Stores are not thread-safe. ClusterCache gives every node its own store
// and serializes its fetches under that node's stats lock, so fetches at
// different nodes never contend; a Topology replays on one thread and owns
// one store. That matters because origin fetches are the common case, not
// the exception: on the flash scenario about 69% of requests go back to
// origin.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/latency_model.hpp"

namespace cdn::cluster {

struct BackingStoreStats {
  std::uint64_t fetches = 0;
  std::uint64_t bytes = 0;
  std::uint64_t total_us = 0;  ///< modeled fetch time, integer microseconds
};

class BackingStore {
 public:
  virtual ~BackingStore() = default;

  BackingStore() = default;
  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Fetches `size` bytes for `id`, records the fetch in stats(), and
  /// returns the modeled fetch latency in milliseconds.
  double fetch(std::uint64_t id, std::uint64_t size);

  [[nodiscard]] const BackingStoreStats& stats() const noexcept {
    return stats_;
  }

 protected:
  /// Modeled latency of one fetch; pure (no side effects), called once per
  /// fetch() with the same arguments.
  [[nodiscard]] virtual double fetch_ms(std::uint64_t id,
                                        std::uint64_t size) const = 0;

 private:
  BackingStoreStats stats_;
};

/// Origin fetch over the DC->origin hop: the paper's BTO path. Its byte
/// counter is the cluster's origin-bandwidth metric.
class OriginStore final : public BackingStore {
 public:
  explicit OriginStore(const LatencyModel& latency) : latency_(latency) {}
  [[nodiscard]] std::string name() const override { return "origin"; }

 protected:
  [[nodiscard]] double fetch_ms(std::uint64_t /*id*/,
                                std::uint64_t size) const override {
    return latency_.dc_to_origin_ms +
           static_cast<double>(size) / latency_.origin_bandwidth;
  }

 private:
  LatencyModel latency_;
};

/// Latency-modeled remote store one hop away (the TDC DC layer as a
/// backend): priced like an OC->DC transfer.
class RemoteStore final : public BackingStore {
 public:
  explicit RemoteStore(const LatencyModel& latency) : latency_(latency) {}
  [[nodiscard]] std::string name() const override { return "remote"; }

 protected:
  [[nodiscard]] double fetch_ms(std::uint64_t /*id*/,
                                std::uint64_t size) const override {
    return latency_.oc_to_dc_ms +
           static_cast<double>(size) / latency_.dc_bandwidth;
  }

 private:
  LatencyModel latency_;
};

/// Free instantaneous backend: isolates pure cache behavior in tests and
/// makes miss accounting checkable without latency noise.
class NullStore final : public BackingStore {
 public:
  [[nodiscard]] std::string name() const override { return "null"; }

 protected:
  [[nodiscard]] double fetch_ms(std::uint64_t /*id*/,
                                std::uint64_t /*size*/) const override {
    return 0.0;
  }
};

using BackingStorePtr = std::unique_ptr<BackingStore>;

/// Constructs a store by name: "origin", "remote" or "null". Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] BackingStorePtr make_backing_store(
    const std::string& name, const LatencyModel& latency);

}  // namespace cdn::cluster
