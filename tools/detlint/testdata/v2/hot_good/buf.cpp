// Fixture: hot growth on a reserved member is exempt. Scans clean under
// every pass.
#include "buf.hpp"

namespace cdn {

void BufGood::setup(int n) {
  v_.reserve(n);
}

void BufGood::fill(int n) {
  for (int i = 0; i < n; ++i) {
    v_.push_back(i);
  }
}

}  // namespace cdn
