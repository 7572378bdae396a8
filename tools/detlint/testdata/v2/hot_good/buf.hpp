// Fixture: the passing counterpart of hot_bad — hot code whose container
// growth is exempt because the class .reserve()s the member.
#pragma once

namespace cdn {

class BufGood {
 public:
  void setup(int n);
  CDN_HOT void fill(int n);

 private:
  std::vector<int> v_;
};

}  // namespace cdn
