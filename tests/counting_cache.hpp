// CountingFake: a node cache that pins the hash-once discipline of the
// concurrent layers (test_cluster_cache, test_srv). It counts calls to
// the hashed entry points, the prefetch hints included, flags any
// forwarded hash that is not hash64(id), and counts every use of the plain
// access()/contains() and of the plain prefetch().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/cache.hpp"
#include "util/rng.hpp"

namespace cdn::fakes {

class CountingFake final : public Cache {
 public:
  struct Counters {
    std::atomic<std::uint64_t> access_hashed{0};
    std::atomic<std::uint64_t> contains_hashed{0};
    std::atomic<std::uint64_t> prefetch_hashed{0};
    std::atomic<std::uint64_t> unhashed{0};  ///< access() or contains()
    std::atomic<std::uint64_t> unhashed_prefetch{0};  ///< prefetch()
    std::atomic<std::uint64_t> bad_hash{0};  ///< h != hash64(id)
  };

  CountingFake(std::uint64_t capacity, Counters* counters)
      : Cache(capacity), counters_(counters) {}

  [[nodiscard]] std::string name() const override { return "fake"; }
  bool access(const Request&) override {
    ++counters_->unhashed;
    return false;
  }
  bool access_hashed(const Request& req, std::uint64_t h) override {
    ++counters_->access_hashed;
    if (h != hash64(req.id)) ++counters_->bad_hash;
    return false;  // always miss: drives the cluster's peer-probe path too
  }
  [[nodiscard]] bool contains(std::uint64_t) const override {
    ++counters_->unhashed;
    return false;
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    ++counters_->contains_hashed;
    if (h != hash64(id)) ++counters_->bad_hash;
    return false;
  }
  void prefetch(std::uint64_t) const noexcept override {
    ++counters_->unhashed_prefetch;
  }
  void prefetch_hashed(std::uint64_t id,
                       std::uint64_t h) const noexcept override {
    ++counters_->prefetch_hashed;
    if (h != hash64(id)) ++counters_->bad_hash;
  }
  [[nodiscard]] std::uint64_t used_bytes() const override { return 0; }

 private:
  Counters* counters_;
};

}  // namespace cdn::fakes
