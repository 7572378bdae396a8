// Fixture: try_lock results that say the lock was NOT taken. A failed
// try_lock holds nothing, so the blocking lock after it is no self-cycle.
// The one try_lock whose success is followed (the early return) is
// released before the blocking lock.
namespace cdn {

class Probe {
 public:
  void failed_probe_then_lock() {
    EXPECT_FALSE(mu_.try_lock());
    MutexLock lk(mu_);
    ++value_;
  }

  void stored_result_then_lock() {
    const bool got = mu_.try_lock();
    if (got) mu_.unlock();
    MutexLock lk(mu_);
    ++value_;
  }

  bool try_then_release() {
    if (!mu_.try_lock()) return false;
    ++value_;
    mu_.unlock();
    MutexLock lk(mu_);
    return true;
  }

 private:
  Mutex mu_;
  int value_ = 0;
};

}  // namespace cdn
