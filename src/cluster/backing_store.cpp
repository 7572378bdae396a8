#include "cluster/backing_store.hpp"

#include <cmath>
#include <stdexcept>

namespace cdn::cluster {

double BackingStore::fetch(std::uint64_t id, std::uint64_t size) {
  const double ms = fetch_ms(id, size);
  ++stats_.fetches;
  stats_.bytes += size;
  // Quantize per fetch, then sum integers: the total is independent of
  // accumulation order and bitwise-stable across platforms.
  stats_.total_us += static_cast<std::uint64_t>(std::llround(ms * 1000.0));
  return ms;
}

BackingStorePtr make_backing_store(const std::string& name,
                                   const LatencyModel& latency) {
  if (name == "origin") return std::make_unique<OriginStore>(latency);
  if (name == "remote") return std::make_unique<RemoteStore>(latency);
  if (name == "null") return std::make_unique<NullStore>();
  throw std::invalid_argument("make_backing_store: unknown store '" + name +
                              "'");
}

}  // namespace cdn::cluster
