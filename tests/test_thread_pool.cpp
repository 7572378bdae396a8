// Unit tests for the thread pool and cdn::Mutex. The *Stress tests are
// sized for the TSan CI job: they drive submit()/parallel_for concurrently
// so the analysis sees the full locking protocol under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace cdn {

/// Reads a Mutex's lock word (Mutex befriends this class for tests).
class MutexProbe {
 public:
  static std::uint32_t state(const Mutex& mu) {
    return mu.state_.load(std::memory_order_relaxed);
  }
  static constexpr std::uint32_t kFree = Mutex::kFree;
  static constexpr std::uint32_t kHeld = Mutex::kHeld;
  static constexpr std::uint32_t kContended = Mutex::kContended;
};

namespace {

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> marks(1000, 0);
  pool.parallel_for(0, marks.size(), [&](std::size_t i) { marks[i] = 1; });
  EXPECT_EQ(std::accumulate(marks.begin(), marks.end(), 0), 1000);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::logic_error("x");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, SizeReflectsWorkers) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, DefaultSizeAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolStress, SubmitRacesParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> small_tasks{0};
  std::vector<std::future<void>> futs;
  futs.reserve(512);
  // One thread floods the queue with tiny tasks while this thread runs a
  // parallel_for on the same pool; both paths contend on mu_/cv_.
  std::thread submitter([&] {
    for (int i = 0; i < 512; ++i) {
      futs.push_back(pool.submit([&small_tasks] { ++small_tasks; }));
    }
  });
  std::vector<int> marks(4096, 0);
  pool.parallel_for(0, marks.size(), [&](std::size_t i) { marks[i] = 1; });
  submitter.join();
  for (auto& f : futs) f.get();
  EXPECT_EQ(small_tasks.load(), 512);
  EXPECT_EQ(std::accumulate(marks.begin(), marks.end(), 0), 4096);
}

TEST(ThreadPoolStress, ConcurrentParallelForsFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> drivers;
  drivers.reserve(3);
  for (int d = 0; d < 3; ++d) {
    drivers.emplace_back([&] {
      pool.parallel_for(0, 1000, [&](std::size_t) { ++total; });
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(total.load(), 3000);
}

TEST(ThreadPoolStress, ExceptionMidParallelForDoesNotDeadlockDestructor) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    // The throwing chunk must not strand the others: parallel_for waits
    // for every chunk before rethrowing (each chunk borrows the callable),
    // and the destructor must still drain and join cleanly afterwards.
    EXPECT_THROW(pool.parallel_for(0, 256,
                                   [&](std::size_t i) {
                                     ++ran;
                                     if (i == 13) {
                                       throw std::runtime_error("mid-flight");
                                     }
                                   }),
                 std::runtime_error);
  }  // destructor would deadlock or UAF here if chunks were stranded
  EXPECT_GE(ran.load(), 14);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

struct GuardedCount {
  Mutex mu;
  std::uint64_t n CDN_GUARDED_BY(mu) = 0;
};

TEST(MutexStress, ContendedIncrementsAreNeverLost) {
  // Plain (non-atomic) increments: any lost update or overlapping critical
  // section shows in the total, and TSan reports the race.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIncrements = 100'000;
  GuardedCount count;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&count] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        MutexLock lk(count.mu);
        ++count.n;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lk(count.mu);
  EXPECT_EQ(count.n, kThreads * kIncrements);
}

TEST(Mutex, TryLockFailsWhileHeldAndSleepersAreWoken) {
  GuardedCount count;
  std::atomic<bool> held{false};
  std::atomic<bool> probed{false};
  std::thread holder([&count, &held, &probed] {
    MutexLock lk(count.mu);
    held.store(true);
    while (!probed.load()) std::this_thread::yield();
    // Hold long past the waiter's spin, so the waiter blocks and only
    // this unlock can wake it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    count.n = 41;
  });
  while (!held.load()) std::this_thread::yield();
  std::thread waiter([&count] {
    MutexLock lk(count.mu);
    ++count.n;
  });
  const bool got_held = count.mu.try_lock();
  if (got_held) count.mu.unlock();
  EXPECT_FALSE(got_held);
  probed.store(true);
  holder.join();
  waiter.join();
  const bool got_free = count.mu.try_lock();
  if (got_free) {
    EXPECT_EQ(count.n, 42u);
    count.mu.unlock();
  }
  EXPECT_TRUE(got_free);
}

TEST(Mutex, FailedTryLockLeavesTheStateUnchanged) {
  // try_lock on a held mutex fails and writes nothing: a held lock stays
  // held without sleepers, and one with a sleeper stays marked contended,
  // so the holder's unlock still wakes it.
  Mutex mu;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&mu, &held, &release] {
    MutexLock lk(mu);
    held.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!held.load()) std::this_thread::yield();
  EXPECT_EQ(MutexProbe::state(mu), MutexProbe::kHeld);
  const bool got_held = mu.try_lock();
  if (got_held) mu.unlock();
  EXPECT_FALSE(got_held);
  EXPECT_EQ(MutexProbe::state(mu), MutexProbe::kHeld);

  std::atomic<bool> waited{false};
  std::thread waiter([&mu, &waited] {
    MutexLock lk(mu);
    waited.store(true);
  });
  // The waiter spins, then marks the word contended and sleeps.
  while (MutexProbe::state(mu) != MutexProbe::kContended) {
    std::this_thread::yield();
  }
  const bool got_contended = mu.try_lock();
  if (got_contended) mu.unlock();
  EXPECT_FALSE(got_contended);
  EXPECT_EQ(MutexProbe::state(mu), MutexProbe::kContended);
  EXPECT_FALSE(waited.load());

  release.store(true);
  holder.join();
  waiter.join();
  EXPECT_TRUE(waited.load());
  EXPECT_EQ(MutexProbe::state(mu), MutexProbe::kFree);
}

}  // namespace
}  // namespace cdn
