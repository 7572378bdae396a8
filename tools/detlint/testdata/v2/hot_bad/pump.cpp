// Fixture: every hot-purity rule at a pinned line. The CDN_HOT markers of
// drain() and peek() sit on the declarations in pump.hpp only.
#include "pump.hpp"

namespace cdn {

void PumpBad::drain(int n) {
  for (int i = 0; i < n; ++i) {
    out_.push_back(i);
  }
}

int PumpBad::peek() {
  if (last_ < 0) throw last_;
  return last_;
}

int free_helper();

// detlint:hot-begin
int hot_region(int n) {
  int acc = 0;
  for (int i = 0; i < n; ++i) {
    int* p = new int(i);
    acc += *p;
    delete p;
  }
  if (acc < 0) throw acc;
  std::printf("%d\n", acc);
  return acc;
}
// detlint:hot-end

int cold_region(int n) {
  // Identical body outside any hot region: none of this may fire.
  int* p = new int(n);
  const int acc = *p;
  delete p;
  if (acc < 0) throw acc;
  std::printf("%d\n", acc);
  return acc;
}

}  // namespace cdn
