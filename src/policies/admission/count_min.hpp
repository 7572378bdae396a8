// Count-Min sketch with conservative update and periodic halving (aging),
// the frequency substrate of TinyLFU admission. 4-bit-equivalent behaviour
// is obtained by clamping counters at 15 and halving all cells once the
// window fills, which keeps the estimate a recent-popularity signal.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace cdn {

class CountMinSketch {
 public:
  /// `width` cells per row (rounded up to a power of two), 4 rows.
  explicit CountMinSketch(std::size_t width = 1 << 16,
                          std::uint64_t window = 1 << 18);

  static constexpr int kRows = 4;
  static constexpr std::uint8_t kMax = 15;

  /// A key's cell in each row. Computing them takes one hash per row, so a
  /// caller that both adds and estimates a key computes them once.
  struct Cells {
    std::size_t index[kRows];
  };
  [[nodiscard]] Cells cells(std::uint64_t key) const;

  /// Records one occurrence; halves all counters when the window fills.
  void add(const Cells& c);
  void add(std::uint64_t key) { add(cells(key)); }

  /// Point estimate (min over rows).
  [[nodiscard]] std::uint8_t estimate(const Cells& c) const;
  [[nodiscard]] std::uint8_t estimate(std::uint64_t key) const {
    return estimate(cells(key));
  }

  [[nodiscard]] std::uint64_t metadata_bytes() const {
    return rows_[0].size() * kRows;
  }

 private:
  void age();

  std::size_t mask_;
  std::uint64_t window_;
  std::uint64_t additions_ = 0;
  std::vector<std::uint8_t> rows_[kRows];
};

}  // namespace cdn
