#include "core/shadow_lanes.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/mutex.hpp"

namespace cdn {

ShadowLanes::ShadowLanes(std::vector<CachePtr> caches)
    : ring_(kRingEntries), lanes_(caches.size()) {
  for (std::size_t j = 0; j < caches.size(); ++j) {
    lanes_[j].cache = std::move(caches[j]);
  }
  try {
    for (Lane& lane : lanes_) {
      lane.thread = std::thread([this, &lane] { run(lane); });
    }
  } catch (...) {
    stop_and_join();  // nothing was pushed: the lanes stop at once
    throw;
  }
}

ShadowLanes::~ShadowLanes() {
  try {
    sync();
  } catch (...) {
    // A failed lane: its exception was, or would next have been, thrown to
    // a caller of push() or sync(); a destructor has no caller to take it.
  }
  stop_and_join();
}

void ShadowLanes::push(const Request& req, std::uint64_t h) {
  if (produced_ - reclaimed_ == kRingEntries) {
    reclaimed_ = wait_for_lanes(kRingEntries - kPublishEvery);
  }
  Entry& e = ring_[produced_ & kMask];
  e.req = req;
  e.h = h;
  if (++produced_ % kPublishEvery == 0) publish();
}

void ShadowLanes::sync() { (void)wait_for_lanes(0); }

std::uint64_t ShadowLanes::metadata_bytes() {
  sync();
  std::uint64_t total = ring_.capacity() * sizeof(Entry);
  for (const Lane& lane : lanes_) total += lane.cache->metadata_bytes();
  return total;
}

void ShadowLanes::publish() {
  // Sequentially consistent store and load, paired with the lane's
  // increment of sleepers_ and its re-read of the head in await(): either
  // the lane sees this head, or this load sees the lane asleep.
  head_.store(produced_, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) head_.notify_all();
}

std::uint32_t ShadowLanes::wait_for_lanes(std::uint32_t lag) {
  publish();
  for (int spin = 0;; ++spin) {
    std::uint32_t worst = 0;
    Lane* slowest = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.failed.load(std::memory_order_acquire)) {
        std::rethrow_exception(lane.error);
      }
      const std::uint32_t behind =
          produced_ - lane.consumed.load(std::memory_order_acquire);
      if (behind > worst) {
        worst = behind;
        slowest = &lane;
      }
    }
    if (worst <= lag) return produced_ - worst;
    if (spin < kProducerSpins) {
      cpu_relax();
    } else if (claim(*slowest)) {
      // Help: the lane is not running (descheduled, or not yet awake), so
      // replay just enough of its backlog here rather than wait for it.
      replay_claimed(*slowest, worst - lag);
    } else {
      std::this_thread::yield();
    }
  }
}

bool ShadowLanes::claim(Lane& lane) {
  return !lane.busy.load(std::memory_order_relaxed) &&
         !lane.busy.exchange(true, std::memory_order_acquire);
}

void ShadowLanes::release(Lane& lane) {
  lane.busy.store(false, std::memory_order_release);
}

void ShadowLanes::replay_claimed(Lane& lane, std::uint32_t limit) {
  try {
    replay(lane, limit);
  } catch (...) {
    // The cache is now in an unknown state: no one replays it again, and
    // every later wait rethrows this.
    lane.error = std::current_exception();
    lane.failed.store(true, std::memory_order_release);
    release(lane);
    throw;
  }
  release(lane);
}

void ShadowLanes::replay(Lane& lane, std::uint32_t limit) {
  // The head is read after the claim, so it is at least the lane's cursor:
  // only the claimant advances the cursor, and never past a published head.
  const std::uint32_t head = head_.load(std::memory_order_acquire);
  // stop_and_join() sets stop_ before it moves the head to a phantom entry,
  // and only once every pushed entry was replayed; such a head is not
  // replayed.
  if (stop_.load(std::memory_order_acquire)) return;
  Cache& cache = *lane.cache;
  std::uint32_t cursor = lane.consumed.load(std::memory_order_relaxed);
  std::uint64_t miss = lane.miss_bytes.load(std::memory_order_relaxed);
  const std::uint32_t end = cursor + std::min(limit, head - cursor);
  while (cursor != end) {
    // Hint the shadow's index slot a few entries ahead, as simulate() does
    // for the live cache (Cache::prefetch changes no decision).
    if (end - cursor > kPrefetchDistance) {
      cache.prefetch(ring_[(cursor + kPrefetchDistance) & kMask].req.id);
    }
    const Entry& e = ring_[cursor & kMask];
    if (!cache.access_hashed(e.req, e.h)) miss += e.req.size;
    ++cursor;
    if (cursor % kPublishEvery == 0 || cursor == end) {
      lane.miss_bytes.store(miss, std::memory_order_relaxed);
      lane.consumed.store(cursor, std::memory_order_release);
    }
  }
}

std::uint32_t ShadowLanes::await(std::uint32_t cursor, int& spin_budget) {
  std::uint32_t head = head_.load(std::memory_order_acquire);
  if (head == cursor) {
    // Adaptive spin (as in adaptive mutexes): a spin that saw the head move
    // doubles the next budget, one that ends in a park halves it. With a
    // core per thread the producer publishes every few microseconds and
    // the budget stays high; with more runnable threads than cores the
    // producer is often descheduled and the lane soon parks at once,
    // leaving its core to the threads that have work.
    int spin = 0;
    for (; head == cursor && spin < spin_budget; ++spin) {
      cpu_relax();
      head = head_.load(std::memory_order_acquire);
    }
    spin_budget = head == cursor ? std::max(kLaneSpinsMin, spin_budget / 2)
                                 : std::min(kLaneSpinsMax, spin_budget * 2);
  }
  if (head == cursor) {
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    while ((head = head_.load(std::memory_order_seq_cst)) == cursor) {
      head_.wait(cursor, std::memory_order_acquire);
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  return head;
}

void ShadowLanes::run(Lane& lane) {
  int spin_budget = kLaneSpinsMax;
  try {
    while (!stop_.load(std::memory_order_acquire) &&
           !lane.failed.load(std::memory_order_acquire)) {
      // The producer may have replayed part of this lane's backlog itself,
      // so the cursor is re-read on every round.
      const std::uint32_t cursor =
          lane.consumed.load(std::memory_order_acquire);
      (void)await(cursor, spin_budget);
      if (claim(lane)) {
        replay_claimed(lane, kRingEntries);
      } else {
        // The producer is replaying this lane. Yield rather than spin: if
        // the producer was preempted mid-help, a spinning lane would burn
        // the core the producer needs to finish (pinned to one CPU of a
        // 4-vCPU VM, a scratch replay ran 1.4-1.6 us/request spinning and
        // 0.75-0.96 yielding).
        std::this_thread::yield();
      }
    }
  } catch (...) {
    // Recorded in the lane by replay_claimed(); the producer rethrows it.
  }
}

void ShadowLanes::stop_and_join() noexcept {
  stop_.store(true, std::memory_order_release);
  // Any head other than a lane's cursor wakes it; this phantom entry is
  // never replayed (see replay()).
  head_.store(produced_ + 1, std::memory_order_seq_cst);
  head_.notify_all();
  for (Lane& lane : lanes_) {
    if (lane.thread.joinable()) lane.thread.join();
  }
}

}  // namespace cdn
