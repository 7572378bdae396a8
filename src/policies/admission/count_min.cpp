#include "policies/admission/count_min.hpp"

#include <algorithm>
#include <bit>

namespace cdn {

CountMinSketch::CountMinSketch(std::size_t width, std::uint64_t window)
    : mask_(std::bit_ceil(std::max<std::size_t>(width, 16)) - 1),
      window_(window) {
  for (auto& row : rows_) row.assign(mask_ + 1, 0);
}

CountMinSketch::Cells CountMinSketch::cells(std::uint64_t key) const {
  // Row-salted mixing; rows are pairwise-independent enough in practice.
  Cells c;
  for (int r = 0; r < kRows; ++r) {
    c.index[r] = static_cast<std::size_t>(hash64(
                     key ^ (0x9e3779b97f4a7c15ULL *
                            static_cast<std::uint64_t>(r + 1)))) &
                 mask_;
  }
  return c;
}

void CountMinSketch::add(const Cells& c) {
  // Conservative update: only bump cells equal to the current minimum.
  const std::uint8_t est = estimate(c);
  if (est < kMax) {
    for (int r = 0; r < kRows; ++r) {
      std::uint8_t& cell = rows_[r][c.index[r]];
      if (cell == est) ++cell;
    }
  }
  if (++additions_ >= window_) age();
}

std::uint8_t CountMinSketch::estimate(const Cells& c) const {
  std::uint8_t m = kMax;
  for (int r = 0; r < kRows; ++r) m = std::min(m, rows_[r][c.index[r]]);
  return m;
}

void CountMinSketch::age() {
  additions_ = 0;
  for (auto& row : rows_) {
    for (auto& c : row) c = static_cast<std::uint8_t>(c >> 1);
  }
}

}  // namespace cdn
