// ShadowLanes: replays one request stream through k caches concurrently,
// each cache on its own thread (a lane). It is the shadow half of
// OrchestratorCache (core/orchestrator.hpp), which scores its exact shadow
// experts on the byte misses of the requests they replay.
//
// Feeding. One producer, the caller of push(), appends each request with
// its hash to a fixed ring of kRingEntries entries and publishes the ring's
// head every kPublishEvery requests. Each lane replays the ring in order
// into its cache and keeps two words: a cumulative miss-byte counter and a
// consumed cursor, stored with release after the counter. A lane that
// falls a whole ring behind holds the producer back.
//
// Sync points. The producer reads a lane's cache or counter only after
// sync(), which publishes the head and waits until every cursor reaches it.
// The lane's writes to its cache then happen before the read, and the lane
// touches the cache again only after a later publish. Every cache replays
// exactly the pushed sequence, in order, so what sync() exposes is what a
// replay on the producer's thread would give, whatever the scheduling.
//
// Waiting. An idle lane spins on the head word for an adaptive budget of
// pauses, then parks on it (std::atomic::wait). A sleeper count lets a
// publish skip notify_all while every lane is awake. The producer never
// parks: when the ring is full, and in sync(), it spins kProducerSpins
// pauses and then HELPS: it claims the slowest lane, if that lane is not
// replaying at the moment, and replays the lane's backlog on its own
// thread; otherwise it yields. A per-lane busy flag makes whoever replays
// a cache its only user, and its acquire/release carries the cache from
// one to the other.
// Without help, a producer waiting on a lane that is descheduled (more
// runnable threads than cores) or slow to wake from its park (on a virtual
// machine a woken thread can take hundreds of microseconds to run) stalls
// long enough for the other lanes to park too, and every later publish
// pays their wake-ups: measured on a 4-vCPU VM, that convoy made the
// orchestrator slower than replaying every shadow on the request thread.
//
// Failure: if a cache throws while it replays, on a lane or while the
// producer helps, the lane stops and push() and sync() rethrow the
// exception from then on, so it reaches the producer's caller.
//
// Single producer: push() and sync() must not run concurrently with each
// other (callers that share the producer serialize it, as the Cache
// contract already requires of access()). Lanes start in the constructor
// and are joined in the destructor, after a final sync.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "sim/cache.hpp"
#include "util/attr.hpp"

namespace cdn {

class ShadowLanes {
 public:
  /// One ring slot: the request as the producer saw it, and hash64(id).
  struct Entry {
    Request req;
    std::uint64_t h = 0;
  };
  /// Ring length. A few hundred entries absorb the jitter between a lane's
  /// per-request costs and the producer's without letting the final wait
  /// of a sync point grow long: the slowest lane is at most this many
  /// replays behind.
  static constexpr std::uint32_t kRingEntries = 256;
  /// The producer publishes the head, and a lane its cursor, this often.
  static constexpr std::uint32_t kPublishEvery = 16;

  /// Starts one lane per cache; the lanes own the caches from here on.
  explicit ShadowLanes(std::vector<CachePtr> caches);
  /// Syncs, then stops and joins every lane.
  ~ShadowLanes();

  ShadowLanes(const ShadowLanes&) = delete;
  ShadowLanes& operator=(const ShadowLanes&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return lanes_.size(); }

  /// Appends one request for every lane to replay.
  CDN_HOT void push(const Request& req, std::uint64_t h);

  /// Publishes the head and waits until every cache has replayed every
  /// pushed request. Changes no logical state.
  void sync();

  /// Lane j's cumulative byte misses. Exact only right after sync().
  [[nodiscard]] std::uint64_t miss_bytes(std::size_t j) const {
    return lanes_[j].miss_bytes.load(std::memory_order_relaxed);
  }

  /// Syncs, then returns every lane cache's metadata plus the ring's
  /// bytes. The lane records themselves (a cursor, a counter, a flag and a
  /// thread handle each) are fixed-size control state and are not charged.
  [[nodiscard]] std::uint64_t metadata_bytes();

 private:
  static constexpr std::uint32_t kMask = kRingEntries - 1;
  static_assert((kRingEntries & kMask) == 0 &&
                    kRingEntries % kPublishEvery == 0,
                "the ring length must be a power of two and a multiple of "
                "the publish stride");
  /// Bounds of the pauses an idle lane spins on the head before it parks
  /// (the budget adapts between them, see await()). At ~20 ns a pause the
  /// upper bound is ~40 us: longer than the producer's gaps while it
  /// serves, far shorter than a scheduler time slice.
  static constexpr int kLaneSpinsMax = 2048;
  static constexpr int kLaneSpinsMin = 8;
  /// Pauses the producer spins on a full ring or a sync before it helps.
  static constexpr int kProducerSpins = 16;
  /// How far ahead a replay hints its cache's index (simulate()'s distance).
  static constexpr std::uint32_t kPrefetchDistance = 8;

  /// Each lane on its own cache line: the producer polls the cursors.
  struct alignas(64) Lane {
    CachePtr cache;
    std::atomic<std::uint64_t> miss_bytes{0};
    std::atomic<std::uint32_t> consumed{0};
    std::atomic<bool> busy{false};  ///< held by whoever replays `cache`
    /// Set, with `error`, when `cache` threw during a replay.
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::thread thread;
  };

  void run(Lane& lane);
  /// Waits until the head moves off `cursor`, spinning up to `spin_budget`
  /// pauses before it parks, and adapts the budget; returns the head.
  std::uint32_t await(std::uint32_t cursor, int& spin_budget);
  void publish();
  /// Publishes, then waits (and helps) until no lane is more than `lag`
  /// entries behind the producer; returns the slowest lane's cursor.
  std::uint32_t wait_for_lanes(std::uint32_t lag);
  [[nodiscard]] static bool claim(Lane& lane);
  static void release(Lane& lane);
  /// replay(), then releases the claim; if the cache throws, marks the
  /// lane failed with the exception and rethrows it.
  void replay_claimed(Lane& lane, std::uint32_t limit);
  /// Replays up to `limit` of the lane's published entries into its cache.
  /// The caller holds the lane's claim.
  void replay(Lane& lane, std::uint32_t limit);
  void stop_and_join() noexcept;

  std::vector<Entry> ring_;
  std::vector<Lane> lanes_;
  std::uint32_t produced_ = 0;   ///< producer only: entries pushed
  std::uint32_t reclaimed_ = 0;  ///< producer only: slowest cursor seen
  // Positions count modulo 2^32; only differences of at most kRingEntries
  // are ever taken, so they wrap safely.
  alignas(64) std::atomic<std::uint32_t> head_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace cdn
