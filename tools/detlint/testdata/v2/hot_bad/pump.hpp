// Fixture: CDN_HOT on a declaration must transfer to the out-of-line
// definition in pump.cpp, where the purity violations live.
#pragma once

namespace cdn {

class PumpBad {
 public:
  CDN_HOT void drain(int n);
  CDN_HOT int peek();

 private:
  std::vector<int> out_;
  int last_ = 0;
};

}  // namespace cdn
