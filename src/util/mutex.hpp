// Annotated mutex / condition-variable wrappers for clang thread-safety
// analysis (see util/thread_annotations.hpp).
//
// libstdc++'s std::mutex and lock guards carry no capability attributes, so
// `-Wthread-safety` cannot track them. Mutex is a three-state futex lock
// word (free, held, held with sleepers; U. Drepper, "Futexes Are Tricky")
// with the attributes, which lets members be declared CDN_GUARDED_BY(mu_)
// and have the protocol checked at compile time. Its lock() spins briefly
// before it blocks, and it sleeps through std::atomic::wait (see there).
//
// CondVar wraps std::condition_variable_any so it can wait directly on
// cdn::Mutex (a BasicLockable); waits keep the CDN_REQUIRES(mu) contract —
// the capability is held on entry and on return, exactly like
// std::condition_variable::wait.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>

#include "util/thread_annotations.hpp"

#if defined(__SANITIZE_THREAD__)
#define CDN_TSAN_MUTEX 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CDN_TSAN_MUTEX 1
#endif
#endif

// ThreadSanitizer models only the mutexes it knows: without these hooks it
// would see Mutex as plain atomics, keeping race detection but losing its
// lock-order-inversion (deadlock) reports. Empty outside TSan builds.
#ifdef CDN_TSAN_MUTEX
#include <sanitizer/tsan_interface.h>
#define CDN_TSAN_HOOK(call) call
#else
#define CDN_TSAN_HOOK(call)
#endif

namespace cdn {

/// One spin-wait pause: tells the core that this thread is busy-waiting, so
/// a sibling hyper-thread gets the pipeline and the exit from the loop does
/// not pay a memory-order mis-speculation.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// A mutex with capability attributes for `-Wthread-safety` that spins
/// briefly, test-and-test-and-set, before a contended lock() blocks.
class CDN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() { CDN_TSAN_HOOK(__tsan_mutex_create(this, 0)); }
  ~Mutex() { CDN_TSAN_HOOK(__tsan_mutex_destroy(this, 0)); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Tries kSpinTries times before blocking. The critical sections in
  /// this code base last tens to hundreds of nanoseconds, while parking
  /// on the futex and being woken costs microseconds, so a contended lock
  /// that sleeps at once waits far longer than the holder needs. On the
  /// 4-client serve-cluster benchmark (4-vCPU VM) the spin took throughput
  /// from about 1.2 M to 1.6 M requests/s. Each try first reads the lock
  /// word with a plain load and attempts the compare-exchange only when
  /// it reads free, so a spinning waiter keeps a shared copy of the line
  /// instead of pulling it away from the holder's unlock(); with lock-free
  /// cluster routing that took serve-cluster from a median 1.89 M to
  /// 2.03 M requests/s (ten seeds, 9 won). Uncontended, the first try
  /// succeeds: one load and one compare-exchange.
  void lock() CDN_ACQUIRE() {
    CDN_TSAN_HOOK(__tsan_mutex_pre_lock(this, 0));
    spin_then_block();
    CDN_TSAN_HOOK(__tsan_mutex_post_lock(this, 0, 0));
  }
  void unlock() CDN_RELEASE() {
    CDN_TSAN_HOOK(__tsan_mutex_pre_unlock(this, 0));
    if (state_.exchange(kFree, std::memory_order_release) == kContended) {
      state_.notify_one();
    }
    CDN_TSAN_HOOK(__tsan_mutex_post_unlock(this, 0));
  }
  /// One try, test-and-test-and-set like each spin of lock(): a held lock
  /// fails on the plain load, so the holder's line stays shared with this
  /// core and the holder's next write to it pays no invalidation round
  /// trip. Node's opportunistic batch path and its prefetch hints call
  /// this on locks other threads hold.
  [[nodiscard]] bool try_lock() CDN_TRY_ACQUIRE(true) {
    CDN_TSAN_HOOK(__tsan_mutex_pre_lock(this, __tsan_mutex_try_lock));
    const bool acquired = try_acquire();
    CDN_TSAN_HOOK(__tsan_mutex_post_lock(
        this, acquired ? __tsan_mutex_try_lock : __tsan_mutex_try_lock_failed,
        0));
    return acquired;
  }

 private:
  static constexpr int kSpinTries = 100;
  /// Lock word states: kContended means sleepers may be waiting.
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kHeld = 1;
  static constexpr std::uint32_t kContended = 2;

  void spin_then_block() noexcept {
    for (int i = 0; i < kSpinTries; ++i) {
      if (try_acquire()) return;
      cpu_relax();
    }
    // Blocking fallback: mark the lock contended, so the holder's unlock()
    // wakes one sleeper, and sleep until the word changes.
    while (state_.exchange(kContended, std::memory_order_acquire) != kFree) {
      state_.wait(kContended, std::memory_order_relaxed);
    }
  }

  /// Reads the word first and attempts the compare-exchange only when it
  /// reads free: a failed try writes nothing.
  bool try_acquire() noexcept {
    if (state_.load(std::memory_order_relaxed) != kFree) return false;
    std::uint32_t expected = kFree;
    return state_.compare_exchange_strong(expected, kHeld,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  friend class MutexProbe;  // tests read state_

  std::atomic<std::uint32_t> state_{kFree};
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
