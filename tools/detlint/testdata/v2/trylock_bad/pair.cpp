// Fixture: a try_lock that succeeded is a held lock. Each form that tests
// its result holds the first mutex while blocking on the second, and the
// reverse_* functions take each pair the other way round: two cycles.
namespace cdn {

class TryPair {
 public:
  void try_in_block() {
    if (a_.try_lock()) {
      MutexLock lk(b_);
      a_.unlock();
    }
  }

  void try_or_return() {
    if (!c_.try_lock()) return;
    MutexLock lk(d_);
    c_.unlock();
  }

  void reverse_ab() {
    MutexLock first(b_);
    MutexLock second(a_);
  }

  void reverse_cd() {
    MutexLock first(d_);
    MutexLock second(c_);
  }

 private:
  Mutex a_;
  Mutex b_;
  Mutex c_;
  Mutex d_;
};

}  // namespace cdn
