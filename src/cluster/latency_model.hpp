// Latency model of the TDC request path (Figure 2 of the paper):
//   user -> OC (outside cache) -> DC (data-center cache) -> COS (origin).
//
// Each hop contributes a fixed round-trip latency plus a size-dependent
// transfer term (size / hop bandwidth). A request served at the OC layer
// pays one hop; an OC miss adds the OC->DC hop; a DC miss adds the
// DC->origin hop ("Backing To Origin", BTO). The defaults approximate
// metro-edge / regional-DC / cross-region origin distances.
//
// Only replay() (topology.hpp) prices requests with it, per monitoring
// window (Fig. 6's latency). ClusterCache counts its origin and peer-fill
// bytes and prices none of them.
#pragma once

#include <cstdint>

namespace cdn::cluster {

struct LatencyModel {
  // Fixed round-trip latencies in milliseconds.
  double user_to_oc_ms = 8.0;
  double oc_to_dc_ms = 25.0;
  double dc_to_origin_ms = 70.0;

  // Hop bandwidths in bytes per millisecond (default ~1.25 GB/s, 400 MB/s,
  // 100 MB/s: links get thinner toward the origin).
  double oc_bandwidth = 1.25e6;
  double dc_bandwidth = 4.0e5;
  double origin_bandwidth = 1.0e5;

  /// Latency of a request served at the OC layer.
  [[nodiscard]] double oc_hit_ms(std::uint64_t size) const {
    return user_to_oc_ms + static_cast<double>(size) / oc_bandwidth;
  }
  /// Latency of a request served at the DC layer (OC missed).
  [[nodiscard]] double dc_hit_ms(std::uint64_t size) const {
    return oc_hit_ms(size) + oc_to_dc_ms +
           static_cast<double>(size) / dc_bandwidth;
  }
  /// Latency of a request served from the origin (both layers missed).
  [[nodiscard]] double origin_ms(std::uint64_t size) const {
    return dc_hit_ms(size) + dc_to_origin_ms +
           static_cast<double>(size) / origin_bandwidth;
  }
};

}  // namespace cdn::cluster
