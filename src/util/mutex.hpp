// Annotated mutex / condition-variable wrappers for clang thread-safety
// analysis (see util/thread_annotations.hpp).
//
// libstdc++'s std::mutex and lock guards carry no capability attributes, so
// `-Wthread-safety` cannot track them. These thin wrappers forward to the
// std types and add the attributes, which lets members be declared
// CDN_GUARDED_BY(mu_) and have the protocol checked at compile time.
// Mutex::lock() also spins briefly before it blocks (see there).
//
// CondVar wraps std::condition_variable_any so it can wait directly on
// cdn::Mutex (a BasicLockable); waits keep the CDN_REQUIRES(mu) contract —
// the capability is held on entry and on return, exactly like
// std::condition_variable::wait.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace cdn {

/// std::mutex with capability attributes for `-Wthread-safety`, and a
/// short spin before a contended lock() blocks.
class CDN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Tries kSpinTries times before blocking. The critical sections in
  /// this code base last tens to hundreds of nanoseconds, while parking
  /// on the futex and being woken costs microseconds, so a contended lock
  /// that sleeps at once waits far longer than the holder needs. On the
  /// 4-client serve-cluster benchmark (4-vCPU VM) the spin took throughput
  /// from about 1.2 M to 1.6 M requests/s. Uncontended, the first try
  /// succeeds and costs what std::mutex::lock() does.
  void lock() CDN_ACQUIRE() {
    for (int i = 0; i < kSpinTries; ++i) {
      if (mu_.try_lock()) return;
      cpu_relax();
    }
    mu_.lock();
  }
  void unlock() CDN_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() CDN_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;

  static constexpr int kSpinTries = 100;

  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::mutex mu_;
};

/// RAII lock for cdn::Mutex, tracked as a scoped capability.
class CDN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CDN_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CDN_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to cdn::Mutex.
///
/// wait() atomically releases and re-acquires `mu` internally; from the
/// analysis' point of view the capability is held across the call, so the
/// caller's guarded accesses before and after the wait both check out.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. Caller must hold `mu` (re-held on return).
  /// Spurious wakeups are possible: always wait in a predicate loop.
  void wait(Mutex& mu) CDN_REQUIRES(mu) CDN_NO_THREAD_SAFETY_ANALYSIS {
    // The unlock/relock pair inside condition_variable_any::wait is not
    // expressible to the analysis; the REQUIRES contract above is what
    // callers are checked against.
    cv_.wait(mu);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace cdn
