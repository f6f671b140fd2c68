// aggregator.hpp — periodic batched reader over a counter registry.
//
// The monitoring plane of the telemetry fleet: collect() batches one
// single-pass Registry::snapshot_all_into walk into a compact,
// sequence-numbered TelemetryFrame — the unit a scraper would ship
// off-box. Because every sample carries its error model + composed
// bound, a frame is self-describing: downstream consumers need no side
// channel to know how approximate each figure is.
//
// Frame assembly is copy-free at steady state: each pass fills ONE
// frame taken from a small recycling pool and publishes that very frame,
// immutable from then on, as latest() — every consumer (the service
// layer's encoders, filter groups, the shm ring) shares it by pointer
// through collect_shared(). A frame returns to the pool when its last
// holder drops it (the shared_ptr deleter; the pool outlives every frame
// because the deleter holds it), and a recycled frame keeps its sample
// storage and name cache: names/models/bounds are re-copied only when
// the registry version changed, so a steady pass writes values only and
// costs one read per counter. A frame a reader still holds is never
// written again — reuse is decided by the deleter running, never by a
// use_count() poll (a relaxed count orders nothing).
//
// Publication ordering: the sequence number is *released last*. A pass
// stores its frame into latest_ (under latest_mutex_) and only then
// release-stores next_sequence_; frames_collected() loads it with
// acquire. A consumer that observes frames_collected() ≥ N therefore
// synchronizes with frame N's publication, and a subsequent latest()
// returns a frame with sequence ≥ N. (The previous fetch_add(relaxed)
// *before* the payload store ordered nothing: the counter could read N
// while latest_ still held frame N−1.)
//
// Two modes:
//
//   * pull — call collect() whenever a frame is wanted (any backend;
//     this is what instrumented tests drive under the sim);
//   * background — start(period) spawns a thread that collects every
//     `period` and publishes the newest frame for latest() readers.
//     Restricted to DirectBackend: an instrumented background thread
//     would charge steps to (and yield into) whatever scheduler the
//     test harness has installed, which only makes sense for program
//     threads the harness knows about.
//
// The aggregator reads as a dedicated pid: give it its own slot in the
// registry's pid space (one thread per pid is the repo-wide contract —
// per-pid read cursors inside k-multiplicative shards are not shareable
// between the aggregator and a worker).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "shard/registry.hpp"

namespace approx::shard {

/// One batched snapshot-all pass. Frames are totally ordered per
/// aggregator by `sequence`.
struct TelemetryFrame {
  std::uint64_t sequence = 0;  // 0 = no frame collected yet
  std::vector<Sample> samples;
  /// Registry version the samples' constant fields (name/model/bound)
  /// reflect — the in-place refresh cache a recycled frame carries
  /// from pass to pass (and a provenance stamp: frames with equal
  /// versions describe the same counter set).
  std::uint64_t registry_version = 0;
};

namespace detail {

/// The aggregator's frame recycler: a mutex-guarded free list. acquire()
/// hands out a frame owned by a shared_ptr whose deleter puts it back
/// here, so a frame is reused only after its last holder let go — the
/// deleter runs after the final (acq_rel) refcount drop and the free
/// list's mutex orders it before the next pass's writes. The deleter
/// holds the pool, so frames may outlive their aggregator.
class FramePool : public std::enable_shared_from_this<FramePool> {
 public:
  std::shared_ptr<TelemetryFrame> acquire() {
    std::unique_ptr<TelemetryFrame> frame;
    {
      std::lock_guard lock(mutex_);
      if (free_.empty()) {
        // Room for every frame ever allocated, so release() never
        // allocates (a throwing deleter would end the program).
        free_.reserve(allocated_ + 1);
        ++allocated_;
      } else {
        frame = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!frame) frame = std::make_unique<TelemetryFrame>();
    auto recycle = [pool = shared_from_this()](TelemetryFrame* f) {
      pool->release(f);
    };
    return {frame.release(), std::move(recycle)};
  }

  /// Frames allocated so far (free or held).
  [[nodiscard]] std::size_t allocated() const {
    std::lock_guard lock(mutex_);
    return allocated_;
  }

 private:
  void release(TelemetryFrame* frame) {
    std::unique_ptr<TelemetryFrame> owned(frame);
    std::lock_guard lock(mutex_);
    free_.push_back(std::move(owned));
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TelemetryFrame>> free_;
  std::size_t allocated_ = 0;
};

}  // namespace detail

template <typename Backend = base::InstrumentedBackend>
class AggregatorT {
 public:
  /// @param registry fleet to aggregate (must outlive the aggregator).
  /// @param pid the aggregator's dedicated slot in the registry's pid
  ///   space; no worker may share it.
  /// @param sequenced opt-in to *sequenced* passes: each collect also
  ///   stamps the registry's change-tracking columns with the frame's
  ///   sequence (the for_each_changed_since feed the service layer's
  ///   delta frames walk). Sequenced passes take the registry's
  ///   exclusive lock and make this aggregator the registry's single
  ///   sequencer — at most ONE sequenced aggregator per registry, and
  ///   its sequence domain is the only one delta consumers may use.
  ///   Plain aggregators (the default) keep the shared-lock read pass
  ///   and leave the tracking columns untouched, so any number may
  ///   coexist.
  AggregatorT(const RegistryT<Backend>& registry, unsigned pid,
              bool sequenced = false)
      : registry_(registry), pid_(pid), sequenced_(sequenced) {}

  ~AggregatorT() { stop(); }

  AggregatorT(const AggregatorT&) = delete;
  AggregatorT& operator=(const AggregatorT&) = delete;

  /// Collects one frame now (pull mode), publishes it for latest() and
  /// returns that published frame — shared, immutable, never copied.
  /// Serialized against the background thread (and other pull callers):
  /// the aggregator owns ONE pid, and the per-pid read state inside
  /// k-multiplicative shards must never be driven from two threads at
  /// once — the collect mutex enforces that, and also keeps published
  /// sequence numbers monotone in publication order. One single-pass
  /// walk of the registry's flat table into a recycled frame (see the
  /// header).
  std::shared_ptr<const TelemetryFrame> collect_shared() {
    std::lock_guard collect_lock(collect_mutex_);
    return collect_locked();
  }

  /// collect_shared(), returned as a copy.
  TelemetryFrame collect() { return *collect_shared(); }

  /// Newest published frame (sequence 0 with no samples before the
  /// first collect()).
  [[nodiscard]] TelemetryFrame latest() const {
    std::shared_ptr<const TelemetryFrame> frame;
    {
      std::lock_guard lock(latest_mutex_);
      frame = latest_;
    }
    return frame ? *frame : TelemetryFrame{};
  }

  /// Frames published so far. Pairs (acquire) with collect()'s release
  /// store: after observing N here, latest() returns sequence ≥ N.
  [[nodiscard]] std::uint64_t frames_collected() const noexcept {
    return next_sequence_.load(std::memory_order_acquire);
  }

  /// Frames the recycling pool has allocated so far. Stays at 2 while
  /// nobody holds frames across passes (the published one + the one
  /// being filled); each frame a reader keeps alive adds at most one.
  [[nodiscard]] std::size_t frames_allocated() const {
    return pool_->allocated();
  }

  /// Background mode (DirectBackend only; see header): collect a frame
  /// every `period` until stop(). No-op if already running.
  void start(std::chrono::milliseconds period)
    requires(!Backend::kInstrumented)
  {
    if (thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this, period] {
      while (!stop_.load(std::memory_order_acquire)) {
        (void)collect_shared();
        // Sleep in small slices so stop() stays responsive at long
        // periods.
        const auto deadline = std::chrono::steady_clock::now() + period;
        while (!stop_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  /// Stops the background thread, if any. Idempotent.
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] unsigned pid() const noexcept { return pid_; }

 private:
  /// One single-pass frame refresh + publication; collect_mutex_ held.
  /// In sequenced mode (see the constructor) the registry additionally
  /// records which counters this pass changed, keyed by the frame's own
  /// sequence number, so delta consumers (src/svc) can later ask for
  /// exactly the entries that moved since a subscriber's acknowledged
  /// frame; collect_mutex_ serializes the passes, making this
  /// aggregator the registry's single sequencer. The change tracking
  /// lives in the registry, not in the frame, so which recycled frame a
  /// pass fills does not matter.
  std::shared_ptr<const TelemetryFrame> collect_locked() {
    std::shared_ptr<TelemetryFrame> frame = pool_->acquire();
    // next_sequence_ is only written under collect_mutex_, so a plain
    // relaxed load reads our own last publication.
    frame->sequence = next_sequence_.load(std::memory_order_relaxed) + 1;
    frame->registry_version =
        sequenced_ ? registry_.snapshot_all_into_sequenced(
                         pid_, frame->samples, frame->registry_version,
                         frame->sequence)
                   : registry_.snapshot_all_into(pid_, frame->samples,
                                                 frame->registry_version);
    std::shared_ptr<const TelemetryFrame> published = std::move(frame);
    std::shared_ptr<const TelemetryFrame> superseded = published;
    {
      std::lock_guard lock(latest_mutex_);
      latest_.swap(superseded);
    }
    // Payload first, sequence last (release): an observer of sequence N
    // via frames_collected() sees N's frame published (header comment).
    next_sequence_.store(published->sequence, std::memory_order_release);
    return published;  // `superseded` returns to the pool if unheld
  }

  const RegistryT<Backend>& registry_;
  unsigned pid_;
  bool sequenced_;            // stamp change tracking? (constructor doc)
  std::mutex collect_mutex_;  // serializes collect() passes (see above)
  std::shared_ptr<detail::FramePool> pool_ =
      std::make_shared<detail::FramePool>();
  std::atomic<std::uint64_t> next_sequence_{0};
  mutable std::mutex latest_mutex_;
  std::shared_ptr<const TelemetryFrame> latest_;  // null: none collected
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

using Aggregator = AggregatorT<base::InstrumentedBackend>;

}  // namespace approx::shard
