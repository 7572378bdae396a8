// In-memory span tracing for the traced benchmark run.
//
// Every timed call into a layer adds its duration to that layer's total
// (all requests). For a deterministic sample of requests — those whose
// hash64(id) has its low kSampleBits bits clear, so every request to a
// sampled object is kept — each call is also kept as a span record (name,
// start, end, parent, request index) and written out as JSON lines when the
// run ends. Recording is per thread: each client thread installs its own
// ThreadTrace, and the decorators (layers.hpp) record into whichever trace
// is installed on the calling thread, so no recording path takes a lock.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers with a timed boundary. Names are the per-layer metric stems.
enum class Layer : std::uint8_t {
  kAccessHit,       ///< the cache under test's access(), outcome hit
  kAccessMiss,      ///< the cache under test's access(), outcome miss
  kScipOnMiss,      ///< ScipAdvisor::on_miss_hashed
  kScipOnEvict,     ///< ScipAdvisor::on_evict_hashed
  kScipOnRequest,   ///< ScipAdvisor::on_request_hashed
  kScipChooseMiss,  ///< ScipAdvisor::choose_mru_for_miss
  kScipChooseHit,   ///< ScipAdvisor::choose_mru_for_hit
  kNodeAccess,      ///< a cluster node's policy access_hashed()
  kNodeProbe,       ///< a cluster node's contains_hashed() (peer probe)
  kCount
};

[[nodiscard]] const char* layer_name(Layer l);

struct LayerTotal {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t positive = 0;  ///< calls that returned true (probes)
};

using LayerTotals =
    std::array<LayerTotal, static_cast<std::size_t>(Layer::kCount)>;

struct SpanRecord {
  std::uint64_t request = 0;  ///< request index in the trace
  std::uint32_t id = 0;       ///< span id, unique within the thread's run
  std::uint32_t parent = 0;   ///< 0 = root
  Layer layer = Layer::kAccessHit;
  std::uint64_t start_ns = 0;  ///< relative to the trace's epoch
  std::uint64_t end_ns = 0;
};

/// One thread's recording state. Install with Scope; not thread-safe.
class ThreadTrace {
 public:
  static constexpr unsigned kSampleBits = 9;  ///< 1 object in 512

  explicit ThreadTrace(std::chrono::steady_clock::time_point epoch)
      : epoch_(epoch) {}

  [[nodiscard]] static bool sampled(std::uint64_t h) noexcept {
    return (h & ((1ULL << kSampleBits) - 1)) == 0;
  }

  /// The trace installed on the calling thread (nullptr when none).
  [[nodiscard]] static ThreadTrace* current() noexcept;

  /// Installs `t` on the calling thread for the scope's lifetime.
  class Scope {
   public:
    explicit Scope(ThreadTrace& t);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadTrace* prev_;
  };

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Starts request `index`; `keep_spans` selects span recording for it.
  void begin_request(std::uint64_t index, bool keep_spans) noexcept {
    request_ = index;
    keep_ = keep_spans;
    open_ = 0;
  }

  /// Opens a span; returns the parent id to hand back to close().
  std::uint32_t open() noexcept {
    const std::uint32_t parent = open_;
    if (keep_) open_ = ++next_id_;
    return parent;
  }

  /// Closes the innermost span, attributing [start, end) to `layer`.
  void close(Layer layer, std::uint64_t start, std::uint64_t end,
             std::uint32_t parent, bool positive = false);

  [[nodiscard]] const LayerTotals& totals() const noexcept { return totals_; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  LayerTotals totals_{};
  std::vector<SpanRecord> spans_;
  std::uint64_t request_ = 0;
  bool keep_ = false;
  std::uint32_t open_ = 0;  ///< innermost open span id (0 = none)
  std::uint32_t next_id_ = 0;
};

/// RAII span around one call into a layer; a no-op without a ThreadTrace.
class Span {
 public:
  explicit Span(Layer layer) noexcept
      : t_(ThreadTrace::current()), layer_(layer) {
    if (t_) {
      parent_ = t_->open();
      start_ = t_->now_ns();
    }
  }
  ~Span() {
    if (t_) t_->close(layer_, start_, t_->now_ns(), parent_, positive_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Marks the call's boolean outcome (counted in LayerTotal::positive).
  void set_positive(bool v) noexcept { positive_ = v; }

 private:
  ThreadTrace* t_;
  Layer layer_;
  std::uint32_t parent_ = 0;
  std::uint64_t start_ = 0;
  bool positive_ = false;
};

/// Sums layer totals across threads.
void accumulate(LayerTotals& into, const LayerTotals& from);

/// Appends `spans` (tagged with `thread`) to `path` as JSON lines.
void write_spans(const std::string& path, int thread,
                 const std::vector<SpanRecord>& spans);

}  // namespace perfbench
